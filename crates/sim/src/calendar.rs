//! The DES engine's event calendar: every pending event in one sorted
//! buffer.
//!
//! A [`SortedQueue`] holds a world's pending events in one `Vec`, sorted
//! by packed `(time, seq)` key in *descending* order, so the next event
//! to fire is at the back and a pop is `Vec::pop`. A push binary-searches
//! its slot and inserts there, which moves up by one slot every pending
//! event that fires before it. The worlds this simulator runs hold at
//! most a few dozen pending events, so a push moves at most a few
//! kilobytes, and the whole calendar is one allocation that
//! [`SortedQueue::with_capacity`] sizes up front. (A `VecDeque` kept in
//! ascending order would move only the shorter side, but its insert
//! handles the ring's wrap on every push, and it measured slower on each
//! of the benchmark's DES workloads; DESIGN.md has the numbers.)
//!
//! # Determinism
//!
//! Both queues in this module pop keys in strictly ascending `u128`
//! order, and [`key`] packs `(time, seq)` lexicographically (`time` in
//! the high 64 bits, the insertion sequence number in the low 64). The
//! engine's sequence numbers are unique, so no two keys are equal and
//! the pop order — time first, insertion order within an instant — is a
//! total order independent of the container. [`HeapQueue`], a binary
//! heap on the same keys, is the reference the tests check the sorted
//! queue against, on random schedules and on the engine's churn.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Nanos;

/// Packs an absolute time and a sequence number into one scalar key
/// whose `u128` order is the lexicographic `(time, seq)` order.
#[inline]
pub fn key(at: Nanos, seq: u64) -> u128 {
    (u128::from(at.as_nanos()) << 64) | u128::from(seq)
}

/// Recovers the time half of a packed key.
#[inline]
pub fn key_time(key: u128) -> Nanos {
    Nanos::from_nanos((key >> 64) as u64)
}

/// One pending event of a [`HeapQueue`]: a packed key plus its payload.
///
/// Ordering is *inverted* on the key so that a `BinaryHeap` (a
/// max-heap) pops the smallest key first.
struct HeapEntry<E> {
    key: u128,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// A binary min-heap on the packed key: the reference implementation
/// the sorted queue is checked against (equivalence proptests, churn
/// tests).
pub struct HeapQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
}

impl<E> HeapQueue<E> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
        }
    }

    /// Creates an empty heap with room for `capacity` pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        HeapQueue {
            heap: BinaryHeap::with_capacity(capacity),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Inserts an event under a packed key.
    #[inline]
    pub fn push(&mut self, key: u128, event: E) {
        self.heap.push(HeapEntry { key, event });
    }

    /// Removes and returns the smallest-keyed event.
    #[inline]
    pub fn pop(&mut self) -> Option<(u128, E)> {
        self.heap.pop().map(|e| (e.key, e.event))
    }
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        HeapQueue::new()
    }
}

/// One pending event of a [`SortedQueue`]. The key is stored as its two
/// `u64` halves so that an entry needs 8-byte alignment, not a `u128`'s
/// 16, which keeps small events in smaller slots.
struct Slot<E> {
    time: u64,
    seq: u64,
    event: E,
}

impl<E> Slot<E> {
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.time) << 64) | u128::from(self.seq)
    }
}

/// Pending events in one buffer, sorted by packed `(time, seq)` key,
/// next to fire at the back.
///
/// Pops keys in strictly ascending order, exactly like [`HeapQueue`]
/// (see the module docs). A pop is O(1); a push is a binary search plus
/// a move of every pending event that fires before the new one, so it is
/// linear in the number of pending events. That suits worlds holding
/// tens of pending events, not thousands.
pub struct SortedQueue<E> {
    /// Descending by key: `slots.last()` fires next.
    slots: Vec<Slot<E>>,
}

impl<E> SortedQueue<E> {
    /// Creates an empty queue. It allocates on the first push.
    pub fn new() -> Self {
        SortedQueue { slots: Vec::new() }
    }

    /// Creates an empty queue with room for `capacity` pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        SortedQueue {
            slots: Vec::with_capacity(capacity),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Inserts an event under a packed key, keeping the buffer sorted.
    #[inline]
    pub fn push(&mut self, key: u128, event: E) {
        let at = self.slots.partition_point(|s| s.key() > key);
        self.slots.insert(
            at,
            Slot {
                time: (key >> 64) as u64,
                seq: key as u64,
                event,
            },
        );
    }

    /// Removes and returns the smallest-keyed event.
    #[inline]
    pub fn pop(&mut self) -> Option<(u128, E)> {
        self.slots.pop().map(|s| (s.key(), s.event))
    }

    /// Removes and returns the smallest-keyed event iff its key is at
    /// most `limit`.
    #[inline]
    pub fn pop_due(&mut self, limit: u128) -> Option<(u128, E)> {
        if self.slots.last()?.key() > limit {
            return None;
        }
        self.pop()
    }
}

impl<E> Default for SortedQueue<E> {
    fn default() -> Self {
        SortedQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn key_packs_lexicographically() {
        let early = key(Nanos::from_nanos(10), u64::MAX);
        let late = key(Nanos::from_nanos(11), 0);
        assert_eq!(key_time(early), Nanos::from_nanos(10));
        assert_eq!(key_time(late), Nanos::from_nanos(11));
        assert!(early < late, "time dominates seq");
        let tie_a = key(Nanos::from_nanos(5), 1);
        let tie_b = key(Nanos::from_nanos(5), 2);
        assert!(tie_a < tie_b, "equal times break ties by insertion order");
    }

    /// Pops every event from both queues, asserting identical order.
    fn drain_both(mut sorted: SortedQueue<u32>, mut heap: HeapQueue<u32>) {
        assert_eq!(sorted.len(), heap.len());
        loop {
            let (a, b) = (sorted.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn wheel_matches_heap_within_window() {
        // Nanosecond-scale times pushed out of order, with one tie.
        let mut sorted = SortedQueue::new();
        let mut heap = HeapQueue::new();
        for (i, ns) in [30u64, 10, 20, 10, 0, 4096, 5000].iter().enumerate() {
            let k = key(Nanos::from_nanos(*ns), i as u64);
            sorted.push(k, i as u32);
            heap.push(k, i as u32);
        }
        drain_both(sorted, heap);
    }

    #[test]
    fn wheel_matches_heap_through_overflow() {
        // Times from nanoseconds to u64::MAX: the full width of the
        // key's time half.
        let mut sorted = SortedQueue::new();
        let mut heap = HeapQueue::new();
        let times = [
            1u64 << 40,
            (1 << 40) + 1,
            5,
            1 << 33,
            (1 << 33) + (1 << 22),
            u64::MAX,
        ];
        for (i, ns) in times.iter().enumerate() {
            let k = key(Nanos::from_nanos(*ns), i as u64);
            sorted.push(k, i as u32);
            heap.push(k, i as u32);
        }
        drain_both(sorted, heap);
    }

    #[test]
    fn interleaved_push_pop_matches_heap() {
        let mut sorted = SortedQueue::new();
        let mut heap = HeapQueue::new();
        let mut seq = 0u64;
        let mut push = |sorted: &mut SortedQueue<u32>, heap: &mut HeapQueue<u32>, ns: u64| {
            let k = key(Nanos::from_nanos(ns), seq);
            sorted.push(k, seq as u32);
            heap.push(k, seq as u32);
            seq += 1;
        };
        for ns in [100u64, 9_000, 50_000_000] {
            push(&mut sorted, &mut heap, ns);
        }
        assert_eq!(sorted.pop(), heap.pop()); // pops t=100
                                              // Push between the popped key and the pending ones.
        push(&mut sorted, &mut heap, 150);
        push(&mut sorted, &mut heap, 8_999);
        drain_both(sorted, heap);
    }

    #[test]
    fn sparse_spacing_matches_heap() {
        // Millisecond-scale gaps, pushed in time order: every push goes
        // in front of every pending event, the longest move there is.
        let mut sorted = SortedQueue::new();
        let mut heap = HeapQueue::new();
        let mut ns = 0u64;
        for i in 0..64u64 {
            ns += 700_000 + (i * 137_911) % 2_900_000; // 0.7–3.6 ms gaps
            let k = key(Nanos::from_nanos(ns), i);
            sorted.push(k, i as u32);
            heap.push(k, i as u32);
        }
        drain_both(sorted, heap);
    }

    /// Drives both queues in lockstep through the engine's steady-state
    /// churn: `in_flight` events seeded over `[0, hop.1]`, then `pops`
    /// pops, each scheduling one successor `hop.0..=hop.1` ns after the
    /// popped event. Every pop must be equal.
    fn churn_lockstep(in_flight: u64, seed: u64, hop: (u64, u64), pops: u64) {
        let mut rng = Rng::new(seed);
        let mut sorted = SortedQueue::with_capacity(in_flight as usize);
        let mut heap = HeapQueue::with_capacity(in_flight as usize);
        for seq in 0..in_flight {
            let k = key(Nanos::from_nanos(rng.range_inclusive(0, hop.1)), seq);
            sorted.push(k, seq);
            heap.push(k, seq);
        }
        for seq in in_flight..in_flight + pops {
            let (k, v) = heap.pop().expect("churn keeps its events in flight");
            assert_eq!(
                sorted.pop(),
                Some((k, v)),
                "churn diverged before event {seq}"
            );
            let at = key_time(k) + Nanos::from_nanos(rng.range_inclusive(hop.0, hop.1));
            sorted.push(key(at, seq), seq);
            heap.push(key(at, seq), seq);
        }
    }

    #[test]
    fn deep_churn_matches_heap() {
        // 4,096 events in flight, each rescheduled a random hop out, so
        // a push lands anywhere in a deep buffer and moves half of it on
        // average.
        churn_lockstep(4096, 0x5eed_cafe, (1, 50_000), 200_000);
    }

    #[test]
    fn shallow_churn_matches_heap() {
        // 48 events in flight on 0.2–4 ms hops: the depth of a chaos or
        // closed-loop world, at random insert positions.
        churn_lockstep(48, 0x0dd_ba11, (200_000, 4_000_000), 200_000);
    }

    #[test]
    fn production_shaped_churn_matches_heap() {
        // The shape of the simulator's worlds: 50 connections alternate
        // a 1–3 µs service hop, which fires before almost every pending
        // event, with a constant 40 µs round trip, which fires after every
        // pending connection event, and one 10 ms periodic timer stays
        // behind them all. The buffer never reallocates.
        const CONNS: u64 = 50;
        const TIMER: u32 = 0;
        const SERVE: u32 = 1;
        const REPLY: u32 = 2;
        let mut rng = Rng::new(0xc105_ed10);
        let mut sorted = SortedQueue::with_capacity(CONNS as usize + 1);
        let mut heap = HeapQueue::new();
        let mut seq = 0u64;
        let mut push = |sorted: &mut SortedQueue<u32>, heap: &mut HeapQueue<u32>, ns: u64, kind| {
            sorted.push(key(Nanos::from_nanos(ns), seq), kind);
            heap.push(key(Nanos::from_nanos(ns), seq), kind);
            seq += 1;
        };
        push(&mut sorted, &mut heap, 10_000_000, TIMER);
        for conn in 0..CONNS {
            push(&mut sorted, &mut heap, conn * 40_000 / CONNS, SERVE);
        }
        let capacity = sorted.slots.capacity();
        for _ in 0..200_000 {
            let (k, kind) = heap.pop().expect("the lane keeps its events in flight");
            assert_eq!(sorted.pop(), Some((k, kind)), "lane diverged at seq {seq}");
            let now = key_time(k).as_nanos();
            match kind {
                TIMER => push(&mut sorted, &mut heap, now + 10_000_000, TIMER),
                SERVE => push(
                    &mut sorted,
                    &mut heap,
                    now + rng.range_inclusive(1_000, 3_000),
                    REPLY,
                ),
                _ => push(&mut sorted, &mut heap, now + 40_000, SERVE),
            }
        }
        assert_eq!(sorted.slots.capacity(), capacity, "the buffer grew");
        drain_both(sorted, heap);
    }

    #[test]
    fn len_tracks_all_tiers() {
        let mut sorted: SortedQueue<u8> = SortedQueue::new();
        assert!(sorted.is_empty());
        sorted.push(key(Nanos::from_nanos(1), 0), 1);
        sorted.push(key(Nanos::from_micros(100), 1), 2);
        sorted.push(key(Nanos::from_secs(10), 2), 3);
        assert_eq!(sorted.len(), 3);
        assert!(!sorted.is_empty());
        while sorted.pop().is_some() {}
        assert_eq!(sorted.len(), 0);
    }
}
