//! # xc-verify — static patch-safety analysis for ABOM binary rewriting
//!
//! ABOM (§4.4 of the X-Containers paper) rewrites `mov`+`syscall` pairs
//! into indirect calls through the vsyscall entry table. The online
//! patcher gets its safety "for free": it only rewrites the 7 or 9 bytes
//! around a site that just trapped, and the `60 ff` tail of the
//! replacement call decodes to an invalid opcode, so a concurrent jump
//! into the middle traps into a recovery handler. The **offline** patcher
//! has neither property — it overwrites whole regions with detour jumps
//! and `int3` fill before the program ever runs — so its safety has to be
//! *proved*, not recovered.
//!
//! This crate is that proof procedure, a classic static-analysis pipeline
//! over [`xc_isa`] images:
//!
//! 1. [`disasm`] — hybrid linear-sweep + recursive-descent disassembly,
//! 2. [`cfg`](mod@cfg) — a basic-block control-flow graph whose direct-branch
//!    target set is *complete* (the modelled subset has no indirect
//!    jumps; see [`xc_isa::inst::BranchKind`]),
//! 3. [`dataflow`] — forward `%rax` syscall-number reaching values and
//!    backward `%rcx` clobber liveness,
//! 4. [`callgraph`] / [`summaries`] / [`absint`] — the v2 interprocedural
//!    layer: whole-image call-graph construction, per-function clobber /
//!    return-effect summaries, and an abstract-interpretation worklist
//!    over all GPRs plus a bounded stack-slot window, propagated across
//!    call edges,
//! 5. [`verifier`] — per-site [`Verdict`]s: `Safe`, `Unsafe(reason)` or
//!    `Unknown(reason)`, where a sound patcher treats `Unknown` exactly
//!    like `Unsafe`. The interprocedural layer monotonically *upgrades*
//!    `Unknown` number-tracking verdicts to `Safe`
//!    [`SiteKind::PropagatedNumber`] sites when a constant provably
//!    reaches the syscall through copies, spills, or call boundaries,
//! 6. [`lint`] — structured findings (stable rule ids, severities, reason
//!    chains, fix hints) rendered as text,
//! 7. [`reverify`](mod@reverify) — post-patch shape checking: patched sites decode
//!    to the documented 7/9-byte replacements and trampolines are
//!    reachable only through their detour jump. It reads the image's
//!    linear [`disasm::sweep`] directly, not the full disassembly:
//!    `sweep` is the one linear sweep, read by [`disassemble_image`] and
//!    `reverify`.
//!
//! Stages 1–5 share one dense id space. The disassembly keeps its sweep
//! in one address-sorted `Vec`, and an instruction's id is its index;
//! the CFG keeps its blocks in one start-sorted `Vec`, and a block's id
//! is its index, holding its range of instruction ids and its
//! successors' block ids. The dataflow, call graph, summaries and
//! abstract interpretation run their worklists over those ids into
//! `Vec`s. Addresses enter only at the edges — judging and the
//! patchers' verdict and site queries — and become ids by binary
//! search.
//!
//! An [`Analysis`] speaks the addresses of the image it was run on.
//! [`AnalysisCache`] memoizes it per loaded image (base, bytes, symbols
//! and configuration), and the online pre-flight and the offline patcher
//! query the shared analysis directly. The per-site report is the one
//! place that decides which sites may be rewritten: the offline patcher
//! detours a non-adjacent site only when its verdict is `Safe`.
//!
//! # Example
//!
//! ```
//! use xc_isa::asm::Assembler;
//! use xc_isa::inst::{Inst, Reg};
//! use xc_verify::{Verdict, Verifier};
//!
//! // The glibc `__read` wrapper from Figure 2 of the paper:
//! let mut a = Assembler::new(0x40_0000);
//! a.label("__read").unwrap();
//! a.inst(Inst::MovImm32 { reg: Reg::Rax, imm: 0 });
//! a.inst(Inst::Syscall);
//! a.inst(Inst::Ret);
//!
//! let analysis = Verifier::new().analyze(&a.finish().unwrap());
//! assert_eq!(analysis.verdict_at(0x40_0005), Some(Verdict::Safe));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absint;
pub mod cache;
pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod disasm;
pub mod lint;
mod profile;
pub mod report;
pub mod reverify;
pub mod summaries;
pub mod verifier;

pub use absint::{AbsInt, AbsState, AbsValue};
pub use cache::AnalysisCache;
pub use callgraph::CallGraph;
pub use cfg::{BasicBlock, Cfg, Edge, EdgeKind};
pub use dataflow::{Dataflow, RaxValue, SyscallFacts};
pub use disasm::{disassemble_image, Disassembly};
pub use lint::{lint_report, render_text, summarize, LintFinding, LintSummary, Severity};
pub use profile::{PipelineProfile, Stage};
pub use report::{
    ReasonChain, SiteKind, SiteReport, UnknownReason, UnsafeReason, Verdict, VerifyReport,
};
pub use reverify::{reverify, ReverifyReport, Violation};
pub use summaries::{FnSummary, RaxEffect, Summaries};
pub use verifier::{Analysis, Verifier, VerifierConfig, MAX_SYSCALL_NR};
