//! Property-based tests for the simulation substrate: event ordering,
//! statistics invariants, and RNG bounds.

use proptest::prelude::*;
use xc_sim::calendar::{key, CalendarQueue, HeapQueue};
use xc_sim::engine::{EventQueue, Simulation, World};
use xc_sim::rng::Rng;
use xc_sim::stats::{Histogram, Summary};
use xc_sim::time::Nanos;

/// World that records (time, tag) for every event it sees.
struct Recorder {
    log: Vec<(u64, u32)>,
}

impl World for Recorder {
    type Event = u32;
    fn handle(&mut self, now: Nanos, tag: u32, _q: &mut EventQueue<u32>) {
        self.log.push((now.as_nanos(), tag));
    }
}

proptest! {
    /// Events fire in nondecreasing time order, and equal-time events in
    /// insertion order — regardless of the scheduling order.
    #[test]
    fn event_order_is_total(times in proptest::collection::vec(0u64..10_000, 1..200)) {
        let mut sim = Simulation::new(Recorder { log: Vec::new() });
        for (tag, &t) in times.iter().enumerate() {
            sim.queue_mut().schedule_at(Nanos::from_nanos(t), tag as u32);
        }
        sim.run();
        let log = &sim.world().log;
        prop_assert_eq!(log.len(), times.len());
        for pair in log.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0, "time order");
            if pair[0].0 == pair[1].0 {
                prop_assert!(pair[0].1 < pair[1].1, "insertion order on ties");
            }
        }
    }

    /// run_until never processes an event past the deadline, and the
    /// remainder still fires afterwards.
    #[test]
    fn run_until_partitions_cleanly(
        times in proptest::collection::vec(0u64..10_000, 1..100),
        deadline in 0u64..10_000,
    ) {
        let mut sim = Simulation::new(Recorder { log: Vec::new() });
        for (tag, &t) in times.iter().enumerate() {
            sim.queue_mut().schedule_at(Nanos::from_nanos(t), tag as u32);
        }
        sim.run_until(Nanos::from_nanos(deadline));
        let before = sim.world().log.len();
        let expected_before = times.iter().filter(|&&t| t <= deadline).count();
        prop_assert_eq!(before, expected_before);
        sim.run();
        prop_assert_eq!(sim.world().log.len(), times.len());
    }

    /// Summary mean/min/max always bracket correctly and merging any
    /// split equals the whole.
    #[test]
    fn summary_merge_invariant(
        xs in proptest::collection::vec(-1e6f64..1e6, 1..200),
        split in 0usize..200,
    ) {
        let split = split.min(xs.len());
        let whole: Summary = xs.iter().copied().collect();
        let mut left: Summary = xs[..split].iter().copied().collect();
        let right: Summary = xs[split..].iter().copied().collect();
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert_eq!(left.min(), whole.min());
        prop_assert_eq!(left.max(), whole.max());
        prop_assert!(whole.min() <= whole.mean() && whole.mean() <= whole.max());
    }

    /// Histogram quantiles are monotone in q and bounded by min/max.
    #[test]
    fn histogram_quantiles_monotone(values in proptest::collection::vec(0u64..1_000_000, 1..300)) {
        let h: Histogram = values.iter().copied().collect();
        let mut prev = 0;
        for i in 0..=10 {
            let q = h.quantile(i as f64 / 10.0);
            prop_assert!(q >= prev, "monotone");
            prev = q;
        }
        prop_assert!(h.quantile(0.0) >= h.min());
        prop_assert!(h.quantile(1.0) <= h.max().max(h.min()));
    }

    /// Bounded RNG draws never escape their range, for any seed.
    #[test]
    fn rng_bounds_hold(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut r = Rng::new(seed);
        for _ in 0..100 {
            prop_assert!(r.next_below(bound) < bound);
            let f = r.next_f64();
            prop_assert!((0.0..1.0).contains(&f));
        }
    }

    /// Derived RNG streams are stable functions of (parent seed, label).
    #[test]
    fn rng_derivation_is_stable(seed in any::<u64>(), label in "[a-z]{1,12}") {
        let a = Rng::new(seed).derive(&label).next_u64();
        let b = Rng::new(seed).derive(&label).next_u64();
        prop_assert_eq!(a, b);
    }

    /// Merging per-shard histograms (in any chunking) is *exactly* the
    /// single-stream histogram: every bucket count, and therefore every
    /// quantile, matches — including values sitting right on power-of-two
    /// bucket boundaries, which the generator aims for deliberately.
    #[test]
    fn histogram_shard_merge_equals_single_stream(
        codes in proptest::collection::vec(0u64..180, 1..300),
        shards in 1usize..8,
    ) {
        // Decode (exponent, offset) pairs into values at 2^e - 1, 2^e,
        // and 2^e + 1 — the edges where bucket indexing changes.
        let values: Vec<u64> = codes
            .iter()
            .map(|&c| {
                let base = 1u64 << (c / 3).min(60);
                match c % 3 {
                    0 => base.saturating_sub(1),
                    1 => base,
                    _ => base + 1,
                }
            })
            .collect();
        let whole: Histogram = values.iter().copied().collect();
        let mut merged = Histogram::new();
        for chunk in values.chunks(values.len().div_ceil(shards)) {
            let shard: Histogram = chunk.iter().copied().collect();
            merged.merge(&shard);
        }
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!(merged.min(), whole.min());
        prop_assert_eq!(merged.max(), whole.max());
        prop_assert_eq!(merged.mean().to_bits(), whole.mean().to_bits());
        for i in 0..=20 {
            let q = f64::from(i) / 20.0;
            prop_assert_eq!(merged.quantile(q), whole.quantile(q));
        }
    }

    /// The calendar queue pops random interleaved schedules in exactly
    /// the order the old binary heap did: same keys, same payloads, same
    /// peeks, through pushes that land in the open bucket, the ring, and
    /// the overflow heap (delays up to 2^36 ns span many windows).
    #[test]
    fn calendar_queue_matches_heap_on_random_interleaves(
        ops in proptest::collection::vec((0u64..(1 << 36), any::<bool>()), 1..400),
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        let mut now = 0u64;
        for (i, &(delay, pop)) in ops.iter().enumerate() {
            // Schedule relative to the last popped time, like the engine.
            let k = key(Nanos::from_nanos(now.saturating_add(delay)), i as u64);
            cal.push(k, i as u32);
            heap.push(k, i as u32);
            prop_assert_eq!(cal.len(), heap.len());
            if pop {
                prop_assert_eq!(cal.peek_key(), heap.peek_key());
                let (a, b) = (cal.pop(), heap.pop());
                prop_assert_eq!(a, b);
                if let Some((k, _)) = a {
                    now = (k >> 64) as u64;
                }
            }
        }
        loop {
            prop_assert_eq!(cal.peek_key(), heap.peek_key());
            let (a, b) = (cal.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// The occupancy-bitmap advance agrees with the binary heap under
    /// sparse and bursty schedules:
    /// delays alternate between sub-µs bursts (events pile into one or
    /// two buckets) and millisecond gaps (hundreds of empty buckets —
    /// the regime where the bitmap scan, not the per-bucket probe, finds
    /// the next occupied epoch).
    #[test]
    fn calendar_queue_matches_heap_on_sparse_bursty_schedules(
        ops in proptest::collection::vec(
            (0u64..3_800_000, any::<bool>(), any::<bool>()),
            1..300,
        ),
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        let mut now = 0u64;
        for (i, &(raw, burst, pop)) in ops.iter().enumerate() {
            // Bimodal delays: bursts land within a bucket or two, gaps
            // skip 50–1000 bucket widths.
            let delay = if burst { raw % 2_000 } else { 200_000 + raw };
            let k = key(Nanos::from_nanos(now.saturating_add(delay)), i as u64);
            cal.push(k, i as u32);
            heap.push(k, i as u32);
            if pop {
                prop_assert_eq!(cal.peek_key(), heap.peek_key());
                let (a, b) = (cal.pop(), heap.pop());
                prop_assert_eq!(a, b);
                if let Some((k, _)) = a {
                    now = (k >> 64) as u64;
                }
            }
        }
        loop {
            prop_assert_eq!(cal.peek_key(), heap.peek_key());
            let (a, b) = (cal.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// `merge_many` over any shard partition — flat, or as a two-level
    /// tree of arbitrary fan-out, or with the shard order rotated — is
    /// byte-identical to the sequential `merge` fold: integer bucket
    /// adds commute and associate, so the lane-chunked batch reducer
    /// may regroup freely without moving a single quantile.
    #[test]
    fn histogram_merge_many_is_order_and_shape_free(
        values in proptest::collection::vec(0u64..1_000_000, 1..300),
        shards in 1usize..9,
        fanout in 1usize..4,
        rotate in 0usize..8,
    ) {
        let parts: Vec<Histogram> = values
            .chunks(values.len().div_ceil(shards))
            .map(|c| c.iter().copied().collect())
            .collect();

        // Reference: sequential pairwise merges in shard order.
        let mut sequential = Histogram::new();
        for p in &parts {
            sequential.merge(p);
        }

        // Flat batch.
        let mut flat = Histogram::new();
        flat.merge_many(&parts.iter().collect::<Vec<_>>());

        // Two-level tree: reduce `fanout`-sized groups, then the roots.
        let mid: Vec<Histogram> = parts
            .chunks(fanout)
            .map(|group| {
                let mut h = Histogram::new();
                h.merge_many(&group.iter().collect::<Vec<_>>());
                h
            })
            .collect();
        let mut tree = Histogram::new();
        tree.merge_many(&mid.iter().collect::<Vec<_>>());

        // Commutativity: rotated shard order.
        let mut rotated_parts: Vec<&Histogram> = parts.iter().collect();
        rotated_parts.rotate_left(rotate % parts.len().max(1));
        let mut rotated = Histogram::new();
        rotated.merge_many(&rotated_parts);

        for h in [&flat, &tree, &rotated] {
            prop_assert_eq!(h.count(), sequential.count());
            prop_assert_eq!(h.min(), sequential.min());
            prop_assert_eq!(h.max(), sequential.max());
            prop_assert_eq!(h.mean().to_bits(), sequential.mean().to_bits());
            for i in 0..=20 {
                let q = f64::from(i) / 20.0;
                prop_assert_eq!(h.quantile(q), sequential.quantile(q));
            }
        }
    }

    /// `Summary::merge_many` is defined as exactly the sequential fold
    /// (float joins are order-sensitive, so the batch entry point must
    /// not re-associate) — bit-for-bit across every moment.
    #[test]
    fn summary_merge_many_is_the_sequential_fold(
        xs in proptest::collection::vec(-1e6f64..1e6, 1..300),
        shards in 1usize..9,
    ) {
        let parts: Vec<Summary> = xs
            .chunks(xs.len().div_ceil(shards))
            .map(|c| c.iter().copied().collect())
            .collect();
        let mut sequential = Summary::new();
        for p in &parts {
            sequential.merge(p);
        }
        let mut batched = Summary::new();
        batched.merge_many(&parts.iter().collect::<Vec<_>>());
        prop_assert_eq!(batched.count(), sequential.count());
        prop_assert_eq!(batched.min().to_bits(), sequential.min().to_bits());
        prop_assert_eq!(batched.max().to_bits(), sequential.max().to_bits());
        prop_assert_eq!(batched.sum().to_bits(), sequential.sum().to_bits());
        prop_assert_eq!(batched.mean().to_bits(), sequential.mean().to_bits());
        prop_assert_eq!(batched.stddev().to_bits(), sequential.stddev().to_bits());
    }

    /// Merging per-shard summaries across any shard count matches the
    /// single-stream summary (count/min/max exactly, moments within fp
    /// tolerance) — the contract the parallel runner's sharded
    /// statistics rely on.
    #[test]
    fn summary_shard_merge_equals_single_stream(
        xs in proptest::collection::vec(-1e6f64..1e6, 1..300),
        shards in 1usize..8,
    ) {
        let whole: Summary = xs.iter().copied().collect();
        let mut merged = Summary::new();
        for chunk in xs.chunks(xs.len().div_ceil(shards)) {
            let shard: Summary = chunk.iter().copied().collect();
            merged.merge(&shard);
        }
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!(merged.min(), whole.min());
        prop_assert_eq!(merged.max(), whole.max());
        let tol = 1e-9 * (1.0 + whole.sum().abs());
        prop_assert!((merged.sum() - whole.sum()).abs() <= tol);
        prop_assert!(
            (merged.mean() - whole.mean()).abs() <= 1e-9 * (1.0 + whole.mean().abs())
        );
        prop_assert!(
            (merged.stddev() - whole.stddev()).abs() <= 1e-6 * (1.0 + whole.stddev().abs())
        );
    }
}
