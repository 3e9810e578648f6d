//! Calendar-queue event storage for the DES engine.
//!
//! A [`CalendarQueue`] replaces the engine's former `BinaryHeap` with a
//! timing wheel: pending events are bucketed by simulated-time *epoch*
//! (`time >> BUCKET_BITS`), with a small overflow heap catching events
//! scheduled beyond the wheel's window. The hot operations become O(1)
//! amortised — a push is a bucket index plus a `Vec` push, a pop takes
//! the tail of a pre-sorted front bucket — instead of O(log n) sift
//! chains whose `u128` compares dominate a saturated simulation.
//!
//! # Determinism
//!
//! Both queue implementations in this module pop keys in strictly
//! ascending `u128` order, and the engine packs `(time, seq)` into that
//! key lexicographically (`time` in the high 64 bits, the insertion
//! sequence number in the low 64). Equal keys cannot exist because the
//! sequence number is unique, so the pop order — time first, insertion
//! order within an instant — is a total order independent of the
//! container: heap and wheel are observationally identical. The
//! [`HeapQueue`] reference implementation (the engine's previous
//! container, verbatim) exists so tests and the `queue_bench` binary can
//! check that equivalence empirically on random schedules.
//!
//! # Structure
//!
//! * `current` — the open bucket: every pending event with epoch ≤
//!   `cursor`, sorted by key *descending* so the next event to fire is a
//!   plain `Vec::pop` from the tail.
//! * `ring` — `NUM_BUCKETS` unsorted buckets for epochs in
//!   `(cursor, cursor + NUM_BUCKETS)`. Within that half-open window each
//!   residue class `epoch % NUM_BUCKETS` contains exactly one epoch, so
//!   a live bucket only ever holds keys of a single epoch.
//! * `overflow` — a min-heap for events at or beyond the window's far
//!   edge; entries migrate onto the ring as the cursor advances.
//!
//! When `current` drains, the queue advances: the nearest populated
//! epoch (found via the occupancy bitmap, bounded by the overflow
//! minimum) becomes the new cursor, overflow entries now inside the
//! window migrate, and the cursor's ring bucket is sorted into
//! `current`. Each event is touched a constant number of times on its
//! way through — push, one migration at most, one sort, pop — which is
//! where the wheel beats the heap's per-operation log factor.
//!
//! # Finding the next bucket
//!
//! A 16×`u64` occupancy bitmap mirrors the ring: bit `r % 64` of word
//! `r / 64` is set exactly when ring bucket `r` is non-empty. `advance`
//! locates the nearest populated epoch with a rotating
//! `trailing_zeros` word scan — at most 17 word reads for the whole
//! 1024-bucket ring — instead of probing buckets one by one. The
//! difference is invisible when events are dense (the very next bucket
//! is almost always populated) but decisive in the sparse regime, where
//! event spacing far exceeds the bucket width and a bucket-by-bucket
//! probe would walk hundreds of empty buckets per pop.
//!
//! # Pooled storage
//!
//! Simulation drivers build thousands of short-lived worlds (one per
//! cluster host, closed-loop worker or chaos cell), each with its own
//! queue. To keep that cheap, a dropped queue clears its three buffers
//! — the open bucket, the ring (every bucket keeps its capacity) and
//! the overflow heap — and parks them in a per-thread spare slot keyed
//! by event type; the next [`CalendarQueue::new`] or
//! [`CalendarQueue::with_capacity`] of that type on the thread takes
//! them back. Only allocations travel: every logical field (cursor,
//! bucket width, adaptation telemetry) is built fresh by the
//! constructor, so a queue on recycled storage is observationally
//! identical to one on new storage.

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Nanos;

/// log2 of the starting bucket width in nanoseconds: 2^12 ns ≈ 4.1 µs
/// per bucket. Service times and RTTs in the workload models are
/// microsecond-scale, so a saturated simulation lands a handful of
/// events in each bucket. The queue resizes away from this when the
/// observed occupancy drifts out of band (see
/// [`CalendarQueue::advance`]).
const DEFAULT_BUCKET_BITS: u32 = 12;
/// Narrowest adaptive bucket width: 2^8 ns = 256 ns.
const MIN_BUCKET_BITS: u32 = 8;
/// Widest adaptive bucket width: 2^22 ns ≈ 4.2 ms per bucket (a ~4.3 s
/// window), enough that even second-scale timer wheels advance bucket
/// by bucket instead of scanning.
const MAX_BUCKET_BITS: u32 = 22;
/// Number of wheel buckets (power of two). The ring *size* is fixed —
/// only the per-bucket time width adapts. At the default width, 1024
/// buckets × 4.1 µs ≈ 4.2 ms of look-ahead window; events beyond it
/// wait in the overflow heap.
const NUM_BUCKETS: usize = 1 << 10;
const EPOCH_MASK: u64 = NUM_BUCKETS as u64 - 1;
/// Words in the ring occupancy bitmap (one bit per bucket).
const OCC_WORDS: usize = NUM_BUCKETS / 64;
/// Advances between adaptation checks. Long enough to smooth over
/// bursts, short enough that a regime change (e.g. a sparse timer
/// phase) is caught within a few thousand events.
const ADAPT_PERIOD: u32 = 512;
/// Mean epoch jump per advance above which the buckets are too narrow
/// (the scan walks mostly-empty words): widen.
const WIDEN_JUMP: u64 = 8;
/// Mean events opened per advance above which the buckets are too wide
/// (each advance sorts a crowd): narrow — but only when the jump is
/// already tiny, so widening and narrowing can never oscillate.
const NARROW_OCCUPANCY: u64 = 16;

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

#[inline]
fn epoch_of(key: u128, bucket_bits: u32) -> u64 {
    ((key >> 64) as u64) >> bucket_bits
}

/// One pending event: a packed `(time, seq)` key plus its payload.
///
/// Ordering is *inverted* on the key so that a `BinaryHeap` (a
/// max-heap) pops the smallest key first.
struct Entry<E> {
    key: u128,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// The engine's previous event container — a plain binary min-heap on
/// the packed key — kept as the reference implementation the calendar
/// queue is checked against (equivalence proptest, `queue_bench`).
pub struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
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

    /// Reserves room for at least `additional` more pending events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
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
        self.heap.push(Entry { key, event });
    }

    /// Removes and returns the smallest-keyed event.
    #[inline]
    pub fn pop(&mut self) -> Option<(u128, E)> {
        self.heap.pop().map(|e| (e.key, e.event))
    }

    /// The smallest pending key, if any. (`&mut` for API symmetry with
    /// [`CalendarQueue::peek_key`].)
    #[inline]
    pub fn peek_key(&mut self) -> Option<u128> {
        self.heap.peek().map(|e| e.key)
    }

    /// Removes and returns the smallest-keyed event iff its key is at
    /// most `limit`.
    #[inline]
    pub fn pop_due(&mut self, limit: u128) -> Option<(u128, E)> {
        if self.heap.peek()?.key > limit {
            return None;
        }
        self.heap.pop().map(|e| (e.key, e.event))
    }
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        HeapQueue::new()
    }
}

/// A timing-wheel priority queue over packed `(time, seq)` keys.
///
/// Pops keys in strictly ascending order, exactly like [`HeapQueue`]
/// (see the module docs for the argument), with O(1) amortised push and
/// pop. The one contract inherited from the engine: a pushed key must
/// not be smaller than the last key popped (the engine's
/// "no scheduling into the past" rule guarantees it).
///
/// Construction reuses the buffers of the last queue of the same event
/// type dropped on this thread (see the module docs), which is why the
/// event type must be `'static`.
pub struct CalendarQueue<E: 'static> {
    /// Open bucket: all events with epoch ≤ `cursor`, sorted by key
    /// descending (next event at the tail).
    current: Vec<Entry<E>>,
    /// Epoch covered by `current`.
    cursor: u64,
    /// The wheel. Lazily allocated on first use; bucket `epoch & MASK`
    /// holds events of the single live epoch in that residue class.
    ring: Vec<Vec<Entry<E>>>,
    /// Total events stored across all ring buckets.
    ring_len: usize,
    /// Ring occupancy: bit `r % 64` of word `r / 64` is set exactly
    /// when ring bucket `r` is non-empty.
    occupancy: [u64; OCC_WORDS],
    /// Events at or beyond the window's far edge, min-keyed first.
    overflow: BinaryHeap<Entry<E>>,
    /// log2 of the current bucket width in nanoseconds.
    bucket_bits: u32,
    /// Advances since the last adaptation check.
    advances: u32,
    /// Events opened into `current` since the last adaptation check.
    opened: u64,
    /// Sum of cursor-epoch jumps since the last adaptation check.
    jump_sum: u64,
}

/// A dropped queue's buffers, emptied, waiting on its thread for the
/// next queue of the same event type.
struct Spare<E> {
    current: Vec<Entry<E>>,
    ring: Vec<Vec<Entry<E>>>,
    overflow: BinaryHeap<Entry<E>>,
}

thread_local! {
    /// One spare slot per event type (a handful of types per process,
    /// so a linear scan beats hashing).
    static SPARES: RefCell<Vec<(TypeId, Box<dyn Any>)>> = const { RefCell::new(Vec::new()) };
}

impl<E: 'static> Spare<E> {
    /// Takes this thread's spare storage for `E`, or empty buffers.
    fn take() -> Self {
        SPARES
            .try_with(|spares| {
                let mut spares = spares.try_borrow_mut().ok()?;
                let i = spares.iter().position(|(id, _)| *id == TypeId::of::<E>())?;
                spares.swap_remove(i).1.downcast::<Self>().ok()
            })
            .ok()
            .flatten()
            .map_or_else(
                || Spare {
                    current: Vec::new(),
                    ring: Vec::new(),
                    overflow: BinaryHeap::new(),
                },
                |spare| *spare,
            )
    }

    /// Parks emptied buffers in this thread's slot for `E` unless the
    /// slot is already full (then they are freed). Never panics, so it
    /// is safe in `Drop`: a busy or torn-down slot just frees them.
    fn put(self) {
        let _ = SPARES.try_with(|spares| {
            if let Ok(mut spares) = spares.try_borrow_mut() {
                if !spares.iter().any(|(id, _)| *id == TypeId::of::<E>()) {
                    spares.push((TypeId::of::<E>(), Box::new(self)));
                }
            }
        });
    }
}

impl<E: 'static> CalendarQueue<E> {
    /// Creates an empty queue with the cursor at epoch zero and the
    /// default bucket width, on this thread's spare storage if a queue
    /// of the same event type was dropped here before.
    pub fn new() -> Self {
        let spare = Spare::take();
        CalendarQueue {
            current: spare.current,
            cursor: 0,
            ring: spare.ring,
            ring_len: 0,
            occupancy: [0; OCC_WORDS],
            overflow: spare.overflow,
            bucket_bits: DEFAULT_BUCKET_BITS,
            advances: 0,
            opened: 0,
            jump_sum: 0,
        }
    }

    /// log2 of the current bucket width in nanoseconds (observability
    /// for benches and tests; starts at 12 and adapts to the schedule).
    pub fn bucket_bits(&self) -> u32 {
        self.bucket_bits
    }

    /// Creates an empty queue with the open bucket pre-sized for
    /// `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut q = CalendarQueue::new();
        q.current.reserve(capacity);
        q
    }

    /// Reserves room for at least `additional` more events in the open
    /// bucket.
    pub fn reserve(&mut self, additional: usize) {
        self.current.reserve(additional);
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.current.len() + self.ring_len + self.overflow.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts an event under a packed key.
    #[inline]
    pub fn push(&mut self, key: u128, event: E) {
        self.push_entry(Entry { key, event });
    }

    /// Routes one entry to the right tier under the current bucket
    /// width. Shared by `push` and `rebucket`.
    #[inline]
    fn push_entry(&mut self, entry: Entry<E>) {
        let epoch = epoch_of(entry.key, self.bucket_bits);
        if epoch <= self.cursor {
            // The open bucket: binary-insert to keep the descending
            // order. Most same-instant work lands at the tail.
            let idx = self.current.partition_point(|e| e.key > entry.key);
            self.current.insert(idx, entry);
        } else if epoch - self.cursor < NUM_BUCKETS as u64 {
            if self.ring.is_empty() {
                self.ring = (0..NUM_BUCKETS).map(|_| Vec::new()).collect();
            }
            let slot = (epoch & EPOCH_MASK) as usize;
            self.ring[slot].push(entry);
            self.ring_len += 1;
            self.occupancy[slot / 64] |= 1 << (slot % 64);
        } else {
            self.overflow.push(entry);
        }
    }

    /// Removes and returns the smallest-keyed event.
    #[inline]
    pub fn pop(&mut self) -> Option<(u128, E)> {
        if self.current.is_empty() && !self.advance() {
            return None;
        }
        self.current.pop().map(|e| (e.key, e.event))
    }

    /// The smallest pending key, if any. Takes `&mut self` because
    /// finding the front may advance the wheel cursor.
    #[inline]
    pub fn peek_key(&mut self) -> Option<u128> {
        if self.current.is_empty() && !self.advance() {
            return None;
        }
        self.current.last().map(|e| e.key)
    }

    /// Removes and returns the smallest-keyed event iff its key is at
    /// most `limit` — a fused peek-then-pop, so bounded drains
    /// (`run_until`) find the front once per event instead of twice.
    #[inline]
    pub fn pop_due(&mut self, limit: u128) -> Option<(u128, E)> {
        if self.current.is_empty() && !self.advance() {
            return None;
        }
        match self.current.last() {
            Some(e) if e.key <= limit => self.current.pop().map(|e| (e.key, e.event)),
            _ => None,
        }
    }

    /// Refills the drained open bucket from the nearest populated
    /// epoch. Returns `false` when no events remain anywhere.
    ///
    /// Deliberately *not* `#[cold]`: in a steady closed loop the event
    /// spacing is close to one bucket width, so the wheel advances
    /// nearly once per pop and this path is as hot as the pop itself.
    fn advance(&mut self) -> bool {
        debug_assert!(self.current.is_empty());
        if self.ring_len == 0 && self.overflow.is_empty() {
            return false;
        }
        self.advances += 1;
        if self.advances >= ADAPT_PERIOD && self.maybe_resize() {
            // A coarsening rebucket can fold pending epochs into the
            // open bucket; if it did, that's this advance's refill.
            if !self.current.is_empty() {
                if self.current.len() > 1 {
                    self.current
                        .sort_unstable_by_key(|e| std::cmp::Reverse(e.key));
                }
                return true;
            }
        }
        // The next cursor is the nearest populated epoch: the occupancy
        // bitmap names the nearest live ring bucket (a live bucket
        // holds a single epoch, so the bucket at distance d *is* epoch
        // cursor + d), bounded by the overflow minimum.
        let overflow_epoch = self
            .overflow
            .peek()
            .map(|e| epoch_of(e.key, self.bucket_bits));
        let ring_epoch = if self.ring_len == 0 {
            None
        } else {
            self.next_ring_epoch()
        };
        let next = match (ring_epoch, overflow_epoch) {
            (Some(r), Some(o)) => Some(r.min(o)),
            (r, o) => r.or(o),
        };
        let Some(next) = next else { return false };
        self.jump_sum += next - self.cursor;
        self.cursor = next;
        // Pull overflow entries that are now inside the window. The
        // minimum's epoch is already in hand, so the common case (empty
        // or still-distant overflow) costs no second heap peek.
        if overflow_epoch.is_some_and(|ep| ep - self.cursor < NUM_BUCKETS as u64) {
            while let Some(e) = self.overflow.peek() {
                let ep = epoch_of(e.key, self.bucket_bits);
                if ep <= self.cursor {
                    let e = self.overflow.pop().expect("peeked entry");
                    self.current.push(e);
                } else if ep - self.cursor < NUM_BUCKETS as u64 {
                    let e = self.overflow.pop().expect("peeked entry");
                    if self.ring.is_empty() {
                        self.ring = (0..NUM_BUCKETS).map(|_| Vec::new()).collect();
                    }
                    let slot = (ep & EPOCH_MASK) as usize;
                    self.ring[slot].push(e);
                    self.ring_len += 1;
                    self.occupancy[slot / 64] |= 1 << (slot % 64);
                } else {
                    break;
                }
            }
        }
        // Open the cursor's ring bucket.
        if self.ring_len > 0 {
            let slot = (self.cursor & EPOCH_MASK) as usize;
            let bucket = &mut self.ring[slot];
            self.ring_len -= bucket.len();
            self.current.append(bucket);
            self.occupancy[slot / 64] &= !(1 << (slot % 64));
        }
        // Near-empty buckets are the steady state when event spacing is
        // comparable to the bucket width; skip the sort-call overhead
        // for the singleton case.
        if self.current.len() > 1 {
            self.current
                .sort_unstable_by_key(|e| std::cmp::Reverse(e.key));
        }
        self.opened += self.current.len() as u64;
        debug_assert!(!self.current.is_empty());
        true
    }

    /// Adaptation check, run every [`ADAPT_PERIOD`] advances: widen the
    /// buckets when the cursor leaps many epochs per advance (sparse
    /// regime — the scan mostly skips emptiness), narrow when each
    /// advance opens a crowd *and* the cursor barely moves (dense regime
    /// — the sort dominates). The conditions are mutually exclusive on
    /// the observed jump, so the width cannot oscillate. Returns whether
    /// a rebucket happened.
    fn maybe_resize(&mut self) -> bool {
        let advances = u64::from(std::mem::take(&mut self.advances));
        let opened = std::mem::take(&mut self.opened);
        let jump_sum = std::mem::take(&mut self.jump_sum);
        let avg_jump = jump_sum / advances;
        let avg_opened = opened / advances;
        let new_bits = if avg_jump > WIDEN_JUMP && self.bucket_bits < MAX_BUCKET_BITS {
            (self.bucket_bits + 2).min(MAX_BUCKET_BITS)
        } else if avg_opened > NARROW_OCCUPANCY
            && avg_jump <= 2
            && self.bucket_bits > MIN_BUCKET_BITS
        {
            (self.bucket_bits - 2).max(MIN_BUCKET_BITS)
        } else {
            return false;
        };
        self.rebucket(new_bits);
        true
    }

    /// Re-buckets every pending ring/overflow entry under a new bucket
    /// width. Safe at any advance boundary: `current` is empty there, so
    /// every pending entry's old epoch is strictly greater than the
    /// cursor, which makes `cursor << old_bits` a lower bound on every
    /// pending time — re-deriving the cursor from that floor can only
    /// round down, never past a pending event.
    fn rebucket(&mut self, new_bits: u32) {
        debug_assert!(self.current.is_empty());
        let floor = self.cursor << self.bucket_bits;
        let mut pending: Vec<Entry<E>> = Vec::with_capacity(self.len());
        for bucket in &mut self.ring {
            pending.append(bucket);
        }
        self.ring_len = 0;
        self.occupancy = [0; OCC_WORDS];
        pending.extend(self.overflow.drain());
        self.bucket_bits = new_bits;
        self.cursor = floor >> new_bits;
        for entry in pending {
            self.push_entry(entry);
        }
    }

    /// Nearest populated ring epoch strictly after the cursor, located
    /// by a rotating `trailing_zeros` scan over the occupancy words:
    /// the first (partial) word masked to residues past the cursor,
    /// then whole words wrapping around the ring. The cursor's own
    /// residue can never be occupied (its live epoch would be
    /// `cursor + NUM_BUCKETS`, which lands in overflow), so a set bit
    /// always names a strictly later epoch.
    #[inline]
    fn next_ring_epoch(&self) -> Option<u64> {
        let start = ((self.cursor + 1) & EPOCH_MASK) as usize;
        let mut w = start / 64;
        let mut word = self.occupancy[w] & (!0u64 << (start % 64));
        for _ in 0..=OCC_WORDS {
            if word != 0 {
                let slot = (w * 64 + word.trailing_zeros() as usize) as u64;
                let d = slot.wrapping_sub(self.cursor) & EPOCH_MASK;
                debug_assert_ne!(d, 0, "cursor residue cannot be occupied");
                return Some(self.cursor + d);
            }
            w = (w + 1) % OCC_WORDS;
            word = self.occupancy[w];
        }
        None
    }
}

impl<E: 'static> Default for CalendarQueue<E> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

impl<E: 'static> Drop for CalendarQueue<E> {
    /// Drops every pending event, then parks the emptied buffers for
    /// the next queue of this event type on the thread.
    fn drop(&mut self) {
        let mut spare = Spare {
            current: std::mem::take(&mut self.current),
            ring: std::mem::take(&mut self.ring),
            overflow: std::mem::take(&mut self.overflow),
        };
        spare.current.clear();
        for bucket in &mut spare.ring {
            bucket.clear();
        }
        spare.overflow.clear();
        spare.put();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn drain_both(mut cal: CalendarQueue<u32>, mut heap: HeapQueue<u32>) {
        assert_eq!(cal.len(), heap.len());
        loop {
            assert_eq!(cal.peek_key(), heap.peek_key());
            let (a, b) = (cal.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn wheel_matches_heap_within_window() {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        for (i, ns) in [30u64, 10, 20, 10, 0, 4096, 5000].iter().enumerate() {
            let k = key(Nanos::from_nanos(*ns), i as u64);
            cal.push(k, i as u32);
            heap.push(k, i as u32);
        }
        drain_both(cal, heap);
    }

    #[test]
    fn wheel_matches_heap_through_overflow() {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        // Far beyond the window (cursor 0, window ~4.2 ms) plus near
        // events; the far ones must migrate back in, in order.
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
            cal.push(k, i as u32);
            heap.push(k, i as u32);
        }
        drain_both(cal, heap);
    }

    #[test]
    fn interleaved_push_pop_matches_heap() {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        let mut seq = 0u64;
        let mut push = |cal: &mut CalendarQueue<u32>, heap: &mut HeapQueue<u32>, ns: u64| {
            let k = key(Nanos::from_nanos(ns), seq);
            cal.push(k, seq as u32);
            heap.push(k, seq as u32);
            seq += 1;
        };
        for ns in [100u64, 9_000, 50_000_000] {
            push(&mut cal, &mut heap, ns);
        }
        assert_eq!(cal.pop(), heap.pop()); // pops t=100
                                           // Push behind the cursor's epoch but after the popped key.
        push(&mut cal, &mut heap, 150);
        push(&mut cal, &mut heap, 8_999);
        drain_both(cal, heap);
    }

    #[test]
    fn epoch_rollover_wraps_ring_residues() {
        // Two epochs NUM_BUCKETS apart share a ring residue; the second
        // must wait for the window to slide, not corrupt the first.
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        let bucket_ns = 1u64 << DEFAULT_BUCKET_BITS;
        let window = bucket_ns * NUM_BUCKETS as u64;
        for (i, ns) in [bucket_ns, bucket_ns + window, bucket_ns + 2 * window]
            .iter()
            .enumerate()
        {
            let k = key(Nanos::from_nanos(*ns), i as u64);
            cal.push(k, i as u32);
            heap.push(k, i as u32);
        }
        drain_both(cal, heap);
    }

    #[test]
    fn sparse_spacing_matches_heap() {
        // Millisecond-scale spacing (hundreds of empty buckets between
        // events) drives the bitmap scan through full-word skips and
        // ring wrap-around.
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        let mut ns = 0u64;
        for i in 0..64u64 {
            ns += 700_000 + (i * 137_911) % 2_900_000; // 0.7–3.6 ms gaps
            let k = key(Nanos::from_nanos(ns), i);
            cal.push(k, i as u32);
            heap.push(k, i as u32);
        }
        drain_both(cal, heap);
    }

    /// Drives `cal` through a self-perpetuating sparse schedule in
    /// lockstep with `heap` — every pop schedules the next event ~1 ms
    /// out, so the cursor leaps ~244 epochs per advance at the default
    /// 4.1 µs width — starting from `pending` events. Returns the next
    /// sequence number and the last scheduled time.
    fn sparse_phase(
        cal: &mut CalendarQueue<u32>,
        heap: &mut HeapQueue<u32>,
        pending: u64,
        pops: usize,
    ) -> (u64, u64) {
        let mut seq = 0u64;
        let mut ns = 0u64;
        for _ in 0..pending {
            ns += 900_000 + (seq * 77_017) % 300_000;
            let k = key(Nanos::from_nanos(ns), seq);
            cal.push(k, seq as u32);
            heap.push(k, seq as u32);
            seq += 1;
        }
        for _ in 0..pops {
            let (k, v) = heap.pop().expect("heap has events");
            assert_eq!(cal.pop(), Some((k, v)), "sparse pop order diverged");
            ns = key_time(k).as_nanos() + 900_000 + (seq * 77_017) % 300_000;
            let nk = key(Nanos::from_nanos(ns), seq);
            cal.push(nk, seq as u32);
            heap.push(nk, seq as u32);
            seq += 1;
        }
        (seq, ns)
    }

    #[test]
    fn adaptive_widening_matches_heap_on_sparse_schedule() {
        // After ADAPT_PERIOD advances of a sparse schedule the queue
        // must have widened its buckets — and still pop in exactly the
        // heap's order throughout.
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        sparse_phase(&mut cal, &mut heap, 8, 1500);
        assert!(
            cal.bucket_bits() > DEFAULT_BUCKET_BITS,
            "sparse schedule should widen buckets, still at {}",
            cal.bucket_bits()
        );
        drain_both(cal, heap);
    }

    #[test]
    fn adaptive_narrowing_matches_heap_on_dense_schedule() {
        // Dense microsecond-scale traffic under artificially wide
        // buckets: drive the width up first with a sparse phase, then
        // flood with dense events and check the queue narrows back while
        // preserving heap order.
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        // Sparse phase: jittered ~1 ms spacing (distinct timestamps, so
        // every pop drains the open bucket and triggers an advance)
        // widens the buckets.
        let (mut seq, mut ns) = sparse_phase(&mut cal, &mut heap, 4, 1500);
        let widened = cal.bucket_bits();
        assert!(widened > DEFAULT_BUCKET_BITS, "setup should widen first");
        // Dense phase: 50 events in flight rescheduled ~40 µs out, so
        // the in-flight span (~40 µs, under one wide bucket) makes each
        // advance open the whole crowd while the cursor moves one epoch
        // at a time. The adaptation window straddling the regime change
        // may widen once more (its average jump is still
        // sparse-dominated); the loop runs until the width drops below
        // the sparse-phase plateau, bounded well past the advances the
        // narrowing checks need.
        for _ in 0..50 {
            ns += 38_000 + (seq * 131) % 4_000;
            let k = key(Nanos::from_nanos(ns), seq);
            cal.push(k, seq as u32);
            heap.push(k, seq as u32);
            seq += 1;
        }
        let mut narrowed = false;
        for _ in 0..400_000 {
            let (k, v) = heap.pop().unwrap();
            assert_eq!(cal.pop(), Some((k, v)), "dense pop order diverged");
            ns = key_time(k).as_nanos() + 38_000 + (seq * 131) % 4_000;
            let nk = key(Nanos::from_nanos(ns), seq);
            cal.push(nk, seq as u32);
            heap.push(nk, seq as u32);
            seq += 1;
            if cal.bucket_bits() < widened {
                narrowed = true;
                break;
            }
        }
        assert!(
            narrowed,
            "dense schedule should narrow buckets back, still at {}",
            cal.bucket_bits()
        );
        loop {
            let (a, c) = (cal.pop(), heap.pop());
            assert_eq!(a, c);
            if c.is_none() {
                break;
            }
        }
    }

    /// Every `(peek_key, pop)` pair of a replay.
    type Trace = Vec<(Option<u128>, Option<(u128, u32)>)>;

    /// Checks a just-built queue's logical state, then replays a fixed
    /// schedule spanning all three tiers, recording every peek and pop.
    fn fresh_replay(mut q: CalendarQueue<u32>) -> Trace {
        assert_eq!(q.len(), 0);
        assert_eq!(q.bucket_bits(), DEFAULT_BUCKET_BITS);
        for (i, t) in [5u64, 4096, 1 << 33, 1 << 40, 12].iter().enumerate() {
            q.push(key(Nanos::from_nanos(*t), i as u64), i as u32);
        }
        let mut trace = Vec::new();
        loop {
            let step = (q.peek_key(), q.pop());
            trace.push(step);
            if step.1.is_none() {
                return trace;
            }
        }
    }

    #[test]
    fn pooled_storage_is_observationally_fresh() {
        // Widen a queue with a sparse phase and leave events in every
        // tier, then drop it: its buffers go to this thread's spare slot.
        let mut used = CalendarQueue::new();
        let (seq, _) = sparse_phase(&mut used, &mut HeapQueue::new(), 8, 1500);
        assert!(used.bucket_bits() > DEFAULT_BUCKET_BITS, "setup must widen");
        let front = key_time(used.peek_key().expect("events pending")).as_nanos();
        let bucket_ns = 1u64 << used.bucket_bits();
        used.push(key(Nanos::from_nanos(front), seq), 0);
        used.push(key(Nanos::from_nanos(front + 2 * bucket_ns), seq + 1), 0);
        used.push(key(Nanos::from_secs(30), seq + 2), 0);
        assert!(!used.current.is_empty() && used.ring_len > 0 && !used.overflow.is_empty());
        drop(used);
        // The next queue on this thread takes the spare storage (its
        // ring is already allocated); one on a new thread starts bare.
        let reused = CalendarQueue::new();
        assert_eq!(reused.ring.len(), NUM_BUCKETS, "spare storage not reused");
        let recycled = fresh_replay(reused);
        let fresh = std::thread::spawn(|| {
            let q = CalendarQueue::new();
            assert!(q.ring.is_empty(), "a new thread has no spare storage");
            fresh_replay(q)
        })
        .join()
        .expect("fresh-thread replay");
        assert_eq!(recycled, fresh);
    }

    #[test]
    fn len_tracks_all_tiers() {
        let mut cal: CalendarQueue<u8> = CalendarQueue::new();
        assert!(cal.is_empty());
        cal.push(key(Nanos::from_nanos(1), 0), 1); // current epoch
        cal.push(key(Nanos::from_micros(100), 1), 2); // ring
        cal.push(key(Nanos::from_secs(10), 2), 3); // overflow
        assert_eq!(cal.len(), 3);
        assert!(!cal.is_empty());
        while cal.pop().is_some() {}
        assert_eq!(cal.len(), 0);
    }
}
