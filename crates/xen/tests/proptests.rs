//! Property-based tests for the hypervisor substrate: hypercall
//! batching and the event-channel bitmap against a per-channel model.

use proptest::prelude::*;
use xc_sim::cost::CostModel;
use xc_xen::events::EventChannels;

/// The channels on both sides of the first word boundary (63, 64), the
/// last channel of the second word (127) and the last channel of a
/// partial third word (129) drain in channel order, and dropping one of
/// them takes out only that one.
#[test]
fn event_bitmaps_at_word_boundaries() {
    let mut ev = EventChannels::new(130);
    for ch in [129, 127, 64, 63] {
        ev.send(ch);
    }
    assert_eq!(ev.pending_count(), 4);
    assert!(ev.drop_pending(64));
    let mut drained = Vec::new();
    ev.take_pending(&mut drained);
    assert_eq!(drained, [63, 127, 129]);
    assert_eq!(ev.pending_count(), 0);
    assert!(!ev.drop_pending(63), "already drained");
    ev.take_pending(&mut drained);
    assert!(drained.is_empty());
    assert_eq!((ev.sends(), ev.deliveries(), ev.drops()), (4, 3, 1));
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

    /// The pending bitmap acts like one pending flag per channel across
    /// three or four words: each drop returns the same result as the
    /// model, a drain returns the same channels in the same order, and
    /// `pending_count` and the counters agree after every call.
    #[test]
    fn event_bitmaps_match_a_per_port_model(
        n in 130u32..200,
        ops in proptest::collection::vec((0u8..5, 0u32..200), 1..300),
    ) {
        let mut ev = EventChannels::new(n);
        let mut model = vec![false; n as usize];
        let (mut sends, mut deliveries, mut drops) = (0u64, 0u64, 0u64);
        // Never emptied by the test: each drain must replace its contents.
        let mut drained = vec![u32::MAX];
        for (kind, ch) in ops {
            let ch = ch % n;
            match kind {
                // Sends are three calls in five, so drains find channels.
                0..=2 => {
                    ev.send(ch);
                    model[ch as usize] = true;
                    sends += 1;
                }
                3 => {
                    let was = std::mem::take(&mut model[ch as usize]);
                    prop_assert_eq!(ev.drop_pending(ch), was);
                    if was {
                        drops += 1;
                    }
                }
                _ => {
                    ev.take_pending(&mut drained);
                    let mut want = Vec::new();
                    for (c, pending) in model.iter_mut().enumerate() {
                        if std::mem::take(pending) {
                            want.push(c as u32);
                        }
                    }
                    deliveries += want.len() as u64;
                    prop_assert_eq!(&drained, &want);
                }
            }
            prop_assert_eq!(ev.pending_count(), model.iter().filter(|&&p| p).count());
            prop_assert_eq!((ev.sends(), ev.deliveries(), ev.drops()), (sends, deliveries, drops));
        }
    }
}
