//! Self-timing probes for the abstract-interpretation fixpoint.
//!
//! [`crate::AbsInt::analyze`] runs through a generic driver that calls
//! into a [`Probe`] at the worklist's hot points. The default probe
//! methods are empty `#[inline]` bodies and the production path
//! monomorphizes against the [`NoProbe`] ZST, so the hooks compile to
//! nothing unless a caller runs [`crate::AbsInt::analyze_profiled`] —
//! the classic zero-cost instrumentation seam.

/// Observation points inside the worklist driver. Every method has an
/// empty inlined default so a probe only pays for what it overrides.
pub(crate) trait Probe {
    /// A block was popped off the worklist (one fixpoint iteration).
    #[inline]
    fn block_popped(&mut self) {}

    /// An edge state was merged into a block's in-state; `changed` is
    /// whether the join moved the lattice (and re-queued the target).
    #[inline]
    fn state_merged(&mut self, changed: bool) {
        let _ = changed;
    }

    /// An `AbsState` was physically copied (scratch refresh, first-merge
    /// intern, or a materialisation intern). Together with
    /// [`Probe::state_shared`] this accounts for every point the
    /// pre-copy-on-write driver cloned: `cloned + shared` is the old
    /// clone count.
    #[inline]
    fn state_cloned(&mut self) {}

    /// An `AbsState` was adopted by arena id where the pre-CoW driver
    /// would have cloned it.
    #[inline]
    fn state_shared(&mut self) {}

    /// The worklist drained — the fixpoint phase is over.
    #[inline]
    fn fixpoint_done(&mut self) {}

    /// Per-instruction pre-states have been materialised.
    #[inline]
    fn materialize_done(&mut self) {}
}

/// The production probe: every hook is a no-op, erased by inlining.
pub(crate) struct NoProbe;

impl Probe for NoProbe {}

mod timing {
    use std::time::Instant;

    /// Counters and phase wall times from one profiled analysis run
    /// (see [`crate::AbsInt::analyze_profiled`]). Wall times are
    /// host-dependent; the counters are deterministic per image.
    #[derive(Debug, Clone)]
    pub struct AbsIntProfile {
        /// Worklist pops (fixpoint iterations).
        pub pops: u64,
        /// Edge-state merges attempted.
        pub merges: u64,
        /// Merges that moved the lattice and re-queued a block.
        pub merges_changed: u64,
        /// `AbsState`s physically copied (scratch refreshes plus arena
        /// interns). `states_cloned + states_shared` is what the
        /// pre-copy-on-write driver cloned.
        pub states_cloned: u64,
        /// `AbsState`s adopted by arena id instead of cloned.
        pub states_shared: u64,
        /// Wall time of the fixpoint phase, in nanoseconds.
        pub fixpoint_nanos: u64,
        /// Wall time of the materialisation phase, in nanoseconds.
        pub materialize_nanos: u64,
        started: Instant,
        fixpoint_end: Option<Instant>,
    }

    impl AbsIntProfile {
        pub(crate) fn new() -> Self {
            AbsIntProfile {
                pops: 0,
                merges: 0,
                merges_changed: 0,
                states_cloned: 0,
                states_shared: 0,
                fixpoint_nanos: 0,
                materialize_nanos: 0,
                started: Instant::now(),
                fixpoint_end: None,
            }
        }
    }

    impl super::Probe for AbsIntProfile {
        #[inline]
        fn block_popped(&mut self) {
            self.pops += 1;
        }

        #[inline]
        fn state_merged(&mut self, changed: bool) {
            self.merges += 1;
            self.merges_changed += u64::from(changed);
        }

        #[inline]
        fn state_cloned(&mut self) {
            self.states_cloned += 1;
        }

        #[inline]
        fn state_shared(&mut self) {
            self.states_shared += 1;
        }

        fn fixpoint_done(&mut self) {
            let now = Instant::now();
            self.fixpoint_nanos = now.duration_since(self.started).as_nanos() as u64;
            self.fixpoint_end = Some(now);
        }

        fn materialize_done(&mut self) {
            let end = self.fixpoint_end.unwrap_or(self.started);
            self.materialize_nanos = end.elapsed().as_nanos() as u64;
        }
    }
}

pub use timing::AbsIntProfile;
