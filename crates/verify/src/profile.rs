//! Self-timing probes for the analysis pipeline.
//!
//! [`crate::Verifier::analyze`] and [`crate::AbsInt::analyze`] run
//! through generic drivers that call into a [`Probe`] after each pipeline
//! stage and at the abstract interpreter's worklist hot points. The
//! default probe methods are empty `#[inline]` bodies and the production
//! path monomorphizes against the [`NoProbe`] ZST, so the hooks compile
//! to nothing unless a caller runs [`crate::Verifier::analyze_profiled`]
//! or [`crate::AbsInt::analyze_profiled`] — the classic zero-cost
//! instrumentation seam.

use std::time::Instant;

/// The stages of one [`crate::Verifier::analyze`] run, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Linear sweep plus recursive descent ([`crate::disassemble_image`]).
    Disasm,
    /// Basic blocks and edges ([`crate::Cfg::build`]).
    Cfg,
    /// `%rax` and `%rcx` fixpoints ([`crate::Dataflow::run`]).
    Dataflow,
    /// Function heads, bodies and call edges ([`crate::CallGraph::build`]).
    CallGraph,
    /// Clobber masks and `%rax` effects ([`crate::Summaries::build`]).
    Summaries,
    /// The interprocedural worklist ([`crate::AbsInt::analyze`]).
    AbsInt,
    /// Per-site verdicts.
    Judge,
}

impl Stage {
    /// Every stage, in pipeline order (`ALL[s as usize] == s`).
    pub const ALL: [Stage; 7] = [
        Stage::Disasm,
        Stage::Cfg,
        Stage::Dataflow,
        Stage::CallGraph,
        Stage::Summaries,
        Stage::AbsInt,
        Stage::Judge,
    ];

    /// Short column name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Disasm => "disasm",
            Stage::Cfg => "cfg",
            Stage::Dataflow => "dataflow",
            Stage::CallGraph => "callgraph",
            Stage::Summaries => "summaries",
            Stage::AbsInt => "absint",
            Stage::Judge => "judge",
        }
    }
}

/// Observation points inside the pipeline. Every method has an empty
/// inlined default so a probe only pays for what it overrides.
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

    /// `stage` finished.
    #[inline]
    fn stage_done(&mut self, stage: Stage) {
        let _ = stage;
    }
}

/// The production probe: every hook is a no-op, erased by inlining.
pub(crate) struct NoProbe;

impl Probe for NoProbe {}

/// Worklist counters from one profiled abstract interpretation (see
/// [`crate::AbsInt::analyze_profiled`]). They are a pure function of
/// the image.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
}

impl Probe for AbsIntProfile {
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
}

/// Wall time of every stage of one [`crate::Verifier::analyze_profiled`]
/// run, plus the abstract interpreter's worklist counters. The times are
/// host-dependent; the counters are not.
#[derive(Debug, Clone)]
pub struct PipelineProfile {
    /// Nanoseconds per stage, indexed by `Stage as usize`.
    stage_nanos: [u64; 7],
    /// The abstract interpreter's worklist counters.
    pub absint: AbsIntProfile,
    lap: Instant,
}

impl PipelineProfile {
    pub(crate) fn start() -> Self {
        PipelineProfile {
            stage_nanos: [0; 7],
            absint: AbsIntProfile::default(),
            lap: Instant::now(),
        }
    }

    /// Nanoseconds spent in `stage`.
    pub fn nanos(&self, stage: Stage) -> u64 {
        self.stage_nanos[stage as usize]
    }

    /// Nanoseconds spent in the whole pipeline.
    pub fn total_nanos(&self) -> u64 {
        self.stage_nanos.iter().sum()
    }
}

impl Probe for PipelineProfile {
    #[inline]
    fn block_popped(&mut self) {
        self.absint.block_popped();
    }

    #[inline]
    fn state_merged(&mut self, changed: bool) {
        self.absint.state_merged(changed);
    }

    #[inline]
    fn state_cloned(&mut self) {
        self.absint.state_cloned();
    }

    #[inline]
    fn state_shared(&mut self) {
        self.absint.state_shared();
    }

    fn stage_done(&mut self, stage: Stage) {
        let now = Instant::now();
        self.stage_nanos[stage as usize] = now.duration_since(self.lap).as_nanos() as u64;
        self.lap = now;
    }
}
