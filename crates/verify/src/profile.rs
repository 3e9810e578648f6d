//! Self-timing probe for the analysis pipeline.
//!
//! [`crate::Verifier::analyze`] runs through a generic driver that calls
//! into a [`Probe`] after each pipeline stage and at every pop of the
//! abstract interpreter's worklist. The default probe methods are empty
//! `#[inline]` bodies and the production path monomorphizes against the
//! [`NoProbe`] ZST, so the hooks compile to nothing unless a caller runs
//! [`crate::Verifier::analyze_profiled`], which times every stage and
//! counts the pops.

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

    /// `stage` finished.
    #[inline]
    fn stage_done(&mut self, stage: Stage) {
        let _ = stage;
    }
}

/// The production probe: every hook is a no-op, erased by inlining.
pub(crate) struct NoProbe;

impl Probe for NoProbe {}

/// Wall time of every stage of one [`crate::Verifier::analyze_profiled`]
/// run, plus the abstract interpreter's worklist pops. The times are
/// host-dependent; the pop count is a pure function of the image.
#[derive(Debug, Clone)]
pub struct PipelineProfile {
    /// Nanoseconds per stage, indexed by `Stage as usize`.
    stage_nanos: [u64; 7],
    /// Worklist pops (fixpoint iterations) of the abstract interpreter.
    pub pops: u64,
    lap: Instant,
}

impl PipelineProfile {
    pub(crate) fn start() -> Self {
        PipelineProfile {
            stage_nanos: [0; 7],
            pops: 0,
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
        self.pops += 1;
    }

    fn stage_done(&mut self, stage: Stage) {
        let now = Instant::now();
        self.stage_nanos[stage as usize] = now.duration_since(self.lap).as_nanos() as u64;
        self.lap = now;
    }
}
