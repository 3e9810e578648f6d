//! Property-based tests for the hypervisor substrate: hypercall
//! batching and the event-channel bitmaps against a per-port model.

use proptest::prelude::*;
use xc_sim::cost::CostModel;
use xc_xen::domain::DomainId;
use xc_xen::events::EventChannels;
use xc_xen::XenError;

/// The two domains of [`bound_pair`].
const DOMS: [DomainId; 2] = [DomainId(1), DomainId(2)];

/// Two domains with `n` ports each. Port `i` of one is bound to port
/// `n - 1 - i` of the other, so most sends land in another bitmap word.
fn bound_pair(n: u32) -> EventChannels {
    let mut ev = EventChannels::new();
    for _ in 0..n {
        for dom in DOMS {
            ev.alloc_unbound(dom).unwrap();
        }
    }
    for port in 0..n {
        ev.bind(DOMS[0], port, DOMS[1], n - 1 - port).unwrap();
    }
    ev
}

/// The ports on both sides of the first word boundary (63, 64) and the
/// last port of the second word (127) drain in port order, and masking
/// one of them holds back only that one.
#[test]
fn event_bitmaps_at_word_boundaries() {
    let n = 130;
    let mut ev = bound_pair(n);
    let (a, b) = (DOMS[0], DOMS[1]);
    for port in [127, 64, 63] {
        ev.send(b, n - 1 - port).unwrap();
    }
    assert_eq!(ev.pending_count(a), 3);
    assert_eq!(ev.pending_count(b), 0);
    ev.set_masked(a, 64, true).unwrap();
    let mut drained = Vec::new();
    ev.take_pending(a, &mut drained);
    assert_eq!(drained, [63, 127]);
    assert!(!ev.has_pending(a));
    assert_eq!(ev.pending_count(a), 1, "masked port 64 stays pending");
    ev.set_masked(a, 64, false).unwrap();
    assert!(ev.has_pending(a));
    assert_eq!(ev.drop_pending(a, 63), Ok(false));
    assert_eq!(ev.drop_pending(a, 64), Ok(true));
    ev.take_pending(a, &mut drained);
    assert!(drained.is_empty());
    assert_eq!(ev.set_masked(a, n, true), Err(XenError::BadEventPort(n)));
    assert_eq!((ev.sends(), ev.deliveries(), ev.drops()), (3, 2, 1));
}

proptest! {
    /// Hypercall batch costs are subadditive: one batch of n is never
    /// more expensive than n batches of 1.
    #[test]
    fn mmu_batching_subadditive(entries in 1u64..4096) {
        let costs = CostModel::skylake_cloud();
        let batched = costs.mmu_update_batch(entries);
        let unbatched = costs.mmu_update_batch(1) * entries;
        prop_assert!(batched <= unbatched);
    }

    /// The pending and mask bitmaps act like one `(pending, masked)`
    /// pair per port across three or four words: each call returns the
    /// same result or error as the model, a drain returns the same
    /// ports in the same order, and `has_pending`, `pending_count` and
    /// the counters agree after every call.
    #[test]
    fn event_bitmaps_match_a_per_port_model(
        n in 130u32..200,
        ops in proptest::collection::vec((0u8..6, 0usize..2, 0u32..208, any::<bool>()), 1..300),
    ) {
        let mut ev = bound_pair(n);
        let mut model = vec![vec![(false, false); n as usize]; 2];
        let (mut sends, mut deliveries, mut drops) = (0u64, 0u64, 0u64);
        // Never emptied by the test: each drain must replace its contents.
        let mut drained = vec![u32::MAX];
        for (kind, d, port, flag) in ops {
            let dom = DOMS[d];
            let bad = Err(XenError::BadEventPort(port));
            match kind {
                // Sends are half the calls, so drains find ports.
                0..=2 => {
                    let got = ev.send(dom, port);
                    if port < n {
                        prop_assert_eq!(got, Ok(()));
                        model[1 - d][(n - 1 - port) as usize].0 = true;
                        sends += 1;
                    } else {
                        prop_assert_eq!(got, bad);
                    }
                }
                3 => {
                    let got = ev.set_masked(dom, port, flag);
                    if port < n {
                        prop_assert_eq!(got, Ok(()));
                        model[d][port as usize].1 = flag;
                    } else {
                        prop_assert_eq!(got, bad);
                    }
                }
                4 => {
                    let got = ev.drop_pending(dom, port);
                    if port < n {
                        let was = std::mem::replace(&mut model[d][port as usize].0, false);
                        prop_assert_eq!(got, Ok(was));
                        drops += u64::from(was);
                    } else {
                        prop_assert_eq!(got, bad.map(|()| false));
                    }
                }
                _ => {
                    ev.take_pending(dom, &mut drained);
                    let mut want = Vec::new();
                    for (p, (pending, masked)) in model[d].iter_mut().enumerate() {
                        if *pending && !*masked {
                            *pending = false;
                            want.push(p as u32);
                        }
                    }
                    deliveries += want.len() as u64;
                    prop_assert_eq!(&drained, &want);
                }
            }
            for (dom, ports) in DOMS.into_iter().zip(&model) {
                prop_assert_eq!(ev.has_pending(dom), ports.iter().any(|&(p, m)| p && !m));
                prop_assert_eq!(ev.pending_count(dom), ports.iter().filter(|&&(p, _)| p).count());
            }
            prop_assert_eq!((ev.sends(), ev.deliveries(), ev.drops()), (sends, deliveries, drops));
        }
    }
}
