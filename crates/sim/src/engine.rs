//! Deterministic discrete-event simulation engine.
//!
//! The engine is a classic event-queue DES specialised for determinism:
//! events scheduled for the same instant fire in insertion order (a strictly
//! monotonic sequence number breaks ties), so a simulation is a pure function
//! of its inputs.
//!
//! Ownership is structured to fit Rust: the *world* (all mutable simulation
//! state) is a single value implementing [`World`]; events are plain data
//! (usually an enum); and the engine hands the world each event together with
//! a mutable [`EventQueue`] through which it may schedule more events. No
//! `Rc<RefCell<…>>` webs, no trait-object callbacks.
//!
//! # Example
//!
//! ```
//! use xc_sim::engine::{EventQueue, Simulation, World};
//! use xc_sim::time::Nanos;
//!
//! struct Counter { fired: u32 }
//! enum Ev { Tick }
//!
//! impl World for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, now: Nanos, _ev: Ev, queue: &mut EventQueue<Ev>) {
//!         self.fired += 1;
//!         if self.fired < 3 {
//!             queue.schedule_in(Nanos::from_nanos(10), Ev::Tick);
//!         }
//!         let _ = now;
//!     }
//! }
//!
//! let mut sim = Simulation::new(Counter { fired: 0 });
//! sim.queue_mut().schedule_at(Nanos::ZERO, Ev::Tick);
//! sim.run();
//! assert_eq!(sim.world().fired, 3);
//! assert_eq!(sim.now(), Nanos::from_nanos(20));
//! ```

use crate::calendar::{key, key_time, CalendarQueue};
use crate::time::Nanos;

/// Simulation state that reacts to events.
///
/// Implementors own *all* mutable state of a simulation; the engine owns the
/// clock and the pending-event queue.
pub trait World: Sized {
    /// The event type driving this world (usually an enum). `'static`
    /// because the event queue recycles its storage per event type (see
    /// [`crate::calendar`]).
    type Event: 'static;

    /// Handles one event at simulated time `now`.
    ///
    /// The handler may schedule follow-up events through `queue`; it must not
    /// assume any particular ordering among events scheduled for the same
    /// instant other than insertion order.
    fn handle(&mut self, now: Nanos, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// The pending-event queue handed to [`World::handle`].
///
/// Events may be scheduled for the current instant or any future instant;
/// scheduling into the past is a logic error and panics, because it would
/// silently corrupt causality.
///
/// Storage is a [`CalendarQueue`] (see [`crate::calendar`]): events are
/// keyed by `(time, seq)` packed into a `u128`, and the wheel pops keys
/// in the same strictly ascending order the previous binary heap did,
/// with O(1) amortised push/pop instead of O(log n).
#[derive(Default)]
pub struct EventQueue<E: 'static> {
    cal: CalendarQueue<E>,
    seq: u64,
    now: Nanos,
}

impl<E: 'static> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            cal: CalendarQueue::new(),
            seq: 0,
            now: Nanos::ZERO,
        }
    }

    /// Creates an empty queue with room for `capacity` pending events
    /// before the open bucket reallocates.
    ///
    /// Closed-loop workloads know their steady-state queue depth up front
    /// (roughly one in-flight event per connection plus one per busy
    /// worker); pre-sizing removes every mid-run growth.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            cal: CalendarQueue::with_capacity(capacity),
            seq: 0,
            now: Nanos::ZERO,
        }
    }

    /// Reserves room for at least `additional` more pending events.
    pub fn reserve(&mut self, additional: usize) {
        self.cal.reserve(additional);
    }

    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.cal.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.cal.is_empty()
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    #[inline]
    pub fn schedule_at(&mut self, at: Nanos, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at}, now={}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.cal.push(key(at, seq), event);
    }

    /// Schedules `event` after a relative `delay`.
    #[inline]
    pub fn schedule_in(&mut self, delay: Nanos, event: E) {
        let at = self.now.saturating_add(delay);
        self.schedule_at(at, event);
    }

    /// The instant of the next pending event, if any. Takes `&mut self`
    /// because finding the front may advance the wheel cursor; the
    /// visible state (pending events, `now`) is unchanged.
    #[inline]
    pub fn peek_at(&mut self) -> Option<Nanos> {
        self.cal.peek_key().map(key_time)
    }

    #[inline]
    fn pop(&mut self) -> Option<(Nanos, E)> {
        self.cal.pop().map(|(key, event)| {
            let at = key_time(key);
            debug_assert!(at >= self.now);
            self.now = at;
            (at, event)
        })
    }

    /// Pops the next event iff it is due at or before `deadline` — a
    /// fused peek-then-pop so bounded drains touch the queue front once
    /// per event.
    #[inline]
    fn pop_due(&mut self, deadline: Nanos) -> Option<(Nanos, E)> {
        // Every seq at time `deadline` qualifies, so the limit key is
        // (deadline, u64::MAX).
        self.cal
            .pop_due(key(deadline, u64::MAX))
            .map(|(key, event)| {
                let at = key_time(key);
                debug_assert!(at >= self.now);
                self.now = at;
                (at, event)
            })
    }
}

impl<E: 'static> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.cal.len())
            .finish()
    }
}

/// A running simulation: a [`World`] plus its event queue and clock.
#[derive(Debug)]
pub struct Simulation<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    steps: u64,
}

impl<W: World> Simulation<W> {
    /// Wraps a world with an empty event queue at time zero.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            queue: EventQueue::new(),
            steps: 0,
        }
    }

    /// Like [`Simulation::new`], with the event queue pre-sized for
    /// `capacity` pending events (see [`EventQueue::with_capacity`]).
    pub fn with_capacity(world: W, capacity: usize) -> Self {
        Simulation {
            world,
            queue: EventQueue::with_capacity(capacity),
            steps: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        self.queue.now()
    }

    /// Total number of events processed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world (e.g. to inspect or seed state between
    /// phases).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Mutable access to the event queue (e.g. to schedule initial events).
    pub fn queue_mut(&mut self) -> &mut EventQueue<W::Event> {
        &mut self.queue
    }

    /// Consumes the simulation, returning the final world state.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    #[inline]
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some((at, event)) => {
                self.steps += 1;
                self.world.handle(at, event, &mut self.queue);
                true
            }
            None => false,
        }
    }

    /// Runs until the event queue drains. Returns the finishing time.
    pub fn run(&mut self) -> Nanos {
        while self.step() {}
        self.now()
    }

    /// Runs until the queue drains or the clock passes `deadline`, whichever
    /// comes first. Events scheduled at exactly `deadline` are processed.
    pub fn run_until(&mut self, deadline: Nanos) -> Nanos {
        while let Some((at, event)) = self.queue.pop_due(deadline) {
            self.steps += 1;
            self.world.handle(at, event, &mut self.queue);
        }
        // Advance the clock to the deadline even if the queue drained early,
        // so measurement windows have a well-defined length.
        if self.queue.now < deadline {
            self.queue.now = deadline;
        }
        self.now()
    }

    /// Runs for at most `max_steps` additional events (a runaway backstop for
    /// property tests). Returns the number of events processed.
    pub fn run_steps(&mut self, max_steps: u64) -> u64 {
        let mut n = 0;
        while n < max_steps && self.step() {
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        log: Vec<(u64, u32)>,
    }

    enum Ev {
        Mark(u32),
        Chain(u32),
    }

    impl World for Recorder {
        type Event = Ev;
        fn handle(&mut self, now: Nanos, event: Ev, queue: &mut EventQueue<Ev>) {
            match event {
                Ev::Mark(id) => self.log.push((now.as_nanos(), id)),
                Ev::Chain(depth) => {
                    self.log.push((now.as_nanos(), depth));
                    if depth > 0 {
                        queue.schedule_in(Nanos::from_nanos(5), Ev::Chain(depth - 1));
                    }
                }
            }
        }
    }

    fn sim() -> Simulation<Recorder> {
        Simulation::new(Recorder { log: Vec::new() })
    }

    #[test]
    fn fires_in_time_order() {
        let mut s = sim();
        s.queue_mut()
            .schedule_at(Nanos::from_nanos(30), Ev::Mark(3));
        s.queue_mut()
            .schedule_at(Nanos::from_nanos(10), Ev::Mark(1));
        s.queue_mut()
            .schedule_at(Nanos::from_nanos(20), Ev::Mark(2));
        s.run();
        assert_eq!(s.world().log, vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn simultaneous_events_fire_in_insertion_order() {
        let mut s = sim();
        for id in 0..10 {
            s.queue_mut()
                .schedule_at(Nanos::from_nanos(50), Ev::Mark(id));
        }
        s.run();
        let ids: Vec<u32> = s.world().log.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn chained_events_advance_clock() {
        let mut s = sim();
        s.queue_mut().schedule_at(Nanos::ZERO, Ev::Chain(4));
        let end = s.run();
        assert_eq!(end, Nanos::from_nanos(20));
        assert_eq!(s.steps(), 5);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut s = sim();
        s.queue_mut().schedule_at(Nanos::ZERO, Ev::Chain(100));
        s.run_until(Nanos::from_nanos(23));
        // Events at t=0,5,10,15,20 fire; t=25 does not.
        assert_eq!(s.world().log.len(), 5);
        assert_eq!(s.now(), Nanos::from_nanos(23));
        // Remaining events still fire afterwards.
        s.run_until(Nanos::from_nanos(25));
        assert_eq!(s.world().log.len(), 6);
    }

    #[test]
    fn run_until_advances_clock_when_drained() {
        let mut s = sim();
        s.queue_mut().schedule_at(Nanos::from_nanos(5), Ev::Mark(1));
        s.run_until(Nanos::from_nanos(1_000));
        assert_eq!(s.now(), Nanos::from_nanos(1_000));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut s = sim();
        s.queue_mut()
            .schedule_at(Nanos::from_nanos(10), Ev::Mark(1));
        s.run();
        s.queue_mut().schedule_at(Nanos::from_nanos(5), Ev::Mark(2));
    }

    #[test]
    fn run_steps_backstop() {
        let mut s = sim();
        s.queue_mut().schedule_at(Nanos::ZERO, Ev::Chain(u32::MAX));
        let n = s.run_steps(100);
        assert_eq!(n, 100);
        assert!(!s.queue.is_empty());
    }

    /// A handler that reschedules at the *current* instant mid-drain must
    /// see its follow-up fire after all other events at that instant that
    /// were already pending, in insertion order.
    #[test]
    fn schedule_at_now_during_drain_fires_last_in_insertion_order() {
        struct Requeue {
            log: Vec<u32>,
        }
        impl World for Requeue {
            type Event = u32;
            fn handle(&mut self, now: Nanos, id: u32, queue: &mut EventQueue<u32>) {
                self.log.push(id);
                if id == 0 {
                    queue.schedule_at(now, 100);
                }
            }
        }
        let mut s = Simulation::new(Requeue { log: Vec::new() });
        for id in 0..3 {
            s.queue_mut().schedule_at(Nanos::from_nanos(7), id);
        }
        s.run();
        assert_eq!(s.world().log, vec![0, 1, 2, 100]);
        assert_eq!(s.now(), Nanos::from_nanos(7));
    }

    #[test]
    fn schedules_at_nanos_max() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.schedule_at(Nanos::from_nanos(3), 1);
        q.schedule_at(Nanos::MAX, 2);
        q.schedule_in(Nanos::MAX, 3); // saturates to MAX, fires after 2
        assert_eq!(q.pop(), Some((Nanos::from_nanos(3), 1)));
        assert_eq!(q.peek_at(), Some(Nanos::MAX));
        assert_eq!(q.pop(), Some((Nanos::MAX, 2)));
        assert_eq!(q.pop(), Some((Nanos::MAX, 3)));
        assert_eq!(q.pop(), None);
        // At now == MAX, scheduling "later" still works (saturating).
        q.schedule_in(Nanos::from_nanos(1), 4);
        assert_eq!(q.pop(), Some((Nanos::MAX, 4)));
    }

    /// Events whose epochs collide on the same wheel residue (exactly one
    /// window apart) must still fire in time order across the rollover.
    #[test]
    fn wheel_epoch_rollover_preserves_order() {
        let mut s = sim();
        // ~4.2 ms apart: same ring residue at 4 µs × 1024 buckets.
        let window = Nanos::from_nanos((1 << 12) * 1024);
        s.queue_mut()
            .schedule_at(Nanos::from_nanos(100), Ev::Mark(1));
        s.queue_mut()
            .schedule_at(Nanos::from_nanos(100) + window, Ev::Mark(2));
        s.queue_mut()
            .schedule_at(Nanos::from_nanos(100) + window * 2, Ev::Mark(3));
        s.run();
        let ids: Vec<u32> = s.world().log.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn peek_at_reports_next_event_without_popping() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert_eq!(q.peek_at(), None);
        q.schedule_at(Nanos::from_nanos(9), 1);
        q.schedule_at(Nanos::from_nanos(4), 2);
        assert_eq!(q.peek_at(), Some(Nanos::from_nanos(4)));
        assert_eq!(q.len(), 2, "peek must not consume");
        assert_eq!(q.pop(), Some((Nanos::from_nanos(4), 2)));
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut a: EventQueue<u8> = EventQueue::with_capacity(64);
        let mut b: EventQueue<u8> = EventQueue::new();
        for q in [&mut a, &mut b] {
            q.schedule_at(Nanos::from_nanos(3), 1);
            q.schedule_at(Nanos::from_nanos(1), 2);
            q.reserve(16);
        }
        assert_eq!(a.pop(), b.pop());
        assert_eq!(a.pop(), Some((Nanos::from_nanos(3), 1)));
    }

    #[test]
    fn queue_len_tracking() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_in(Nanos::from_nanos(1), 1);
        q.schedule_in(Nanos::from_nanos(2), 2);
        assert_eq!(q.len(), 2);
    }
}
