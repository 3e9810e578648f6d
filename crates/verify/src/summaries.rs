//! Per-function summaries: clobber sets and `%rax` effects.
//!
//! The interprocedural engine ([`crate::absint`]) needs two facts about
//! every call it steps over: *which registers may the callee change* (the
//! clobber set, a bitmask over the eight GPRs) and *what lands in `%rax`*
//! (the return-value effect). Both are computed bottom-up over the
//! [`crate::callgraph::CallGraph`] as a growing fixpoint:
//!
//! * **Clobbers** start from each function's own register writes and
//!   absorb callee clobbers until stable. A function containing an
//!   *unresolved* call (vsyscall page, escaped indirect) is pinned at
//!   clobber-everything. If the fixpoint has not stabilised within
//!   `MAX_SUMMARY_DEPTH` rounds, every summary collapses to
//!   clobber-everything — an early stop on a growing iteration would be
//!   an *under*-approximation, which is the unsound direction.
//! * **`%rax` effects** start pessimistic ([`RaxEffect::Unknown`]) and
//!   are *refined* for the same number of rounds, so any intermediate
//!   state is already sound. The effect is read off a straight-line scan
//!   of the entry block: `mov $imm, %eax`-family gives
//!   [`RaxEffect::Const`], and a function that provably never writes
//!   `%rax` is [`RaxEffect::Preserved`].

use xc_isa::inst::{Inst, Reg};

use crate::callgraph::CallGraph;
use crate::cfg::Cfg;
use crate::disasm::Disassembly;

/// Growth-round cap for the summary fixpoint: clobber sets that have
/// not stabilised within this many rounds collapse to
/// clobber-everything.
const MAX_SUMMARY_DEPTH: u8 = 8;

/// Bit for `reg` in a clobber mask.
#[inline]
pub fn reg_bit(reg: Reg) -> u8 {
    1u8 << reg.code()
}

/// Clobber mask naming all eight GPRs.
pub const CLOBBER_ALL: u8 = 0xff;

/// What a call leaves in `%rax`, as seen by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaxEffect {
    /// The callee provably never writes `%rax`.
    Preserved,
    /// The callee returns this constant on every path.
    Const(i64),
    /// No claim.
    Unknown,
}

/// Summary of one function, applied at its call sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FnSummary {
    /// Registers the call may change, as a bitmask (`1 << reg.code()`).
    pub clobbers: u8,
    /// Return-value effect on `%rax`.
    pub rax: RaxEffect,
}

impl FnSummary {
    /// The summary assumed for anything we cannot analyze.
    pub const UNRESOLVED: FnSummary = FnSummary {
        clobbers: CLOBBER_ALL,
        rax: RaxEffect::Unknown,
    };
}

/// Summaries for every node of a call graph.
#[derive(Debug, Clone, Default)]
pub struct Summaries {
    /// Summary per block id: a function head's own summary, and
    /// [`FnSummary::UNRESOLVED`] for every other block.
    by_block: Vec<FnSummary>,
}

impl Summaries {
    /// Summary of the function headed by block `head`, conservatively
    /// [`FnSummary::UNRESOLVED`] for blocks that head no function.
    pub fn summary(&self, head: usize) -> FnSummary {
        self.by_block
            .get(head)
            .copied()
            .unwrap_or(FnSummary::UNRESOLVED)
    }

    /// Computes summaries bottom-up to a fixpoint (capped at
    /// `MAX_SUMMARY_DEPTH` growth rounds, collapsing to
    /// clobber-everything if the cap is hit before stability). Each round
    /// visits the function heads in ascending order and reads the masks
    /// and effects the round has already updated.
    pub fn build(disasm: &Disassembly, cfg: &Cfg, cg: &CallGraph) -> Summaries {
        let own: Vec<u8> = (0..cg.nodes.len())
            .map(|k| own_clobbers(k, disasm, cfg, cg))
            .collect();
        let mut clobbers = vec![CLOBBER_ALL; cfg.blocks.len()];
        for (k, &head) in cg.nodes.iter().enumerate() {
            clobbers[head] = own[k];
        }
        let mut stable = false;
        for _ in 0..MAX_SUMMARY_DEPTH {
            let mut changed = false;
            for (k, &head) in cg.nodes.iter().enumerate() {
                let mask = cg.callees[k]
                    .iter()
                    .fold(own[k], |mask, &callee| mask | clobbers[callee]);
                if clobbers[head] != mask {
                    clobbers[head] = mask;
                    changed = true;
                }
            }
            if !changed {
                stable = true;
                break;
            }
        }
        if !stable {
            clobbers.fill(CLOBBER_ALL);
        }

        // Effects start pessimistic, so every refinement round is sound
        // on its own and the cap needs no collapse step.
        let mut summaries = Summaries {
            by_block: clobbers
                .into_iter()
                .map(|mask| FnSummary {
                    clobbers: mask,
                    rax: RaxEffect::Unknown,
                })
                .collect(),
        };
        for _ in 0..MAX_SUMMARY_DEPTH {
            let mut changed = false;
            for &head in &cg.nodes {
                let effect = entry_block_rax_effect(head, disasm, cfg, cg, &summaries);
                let cur = &mut summaries.by_block[head];
                if cur.rax != effect {
                    cur.rax = effect;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        summaries
    }
}

/// Registers written directly by one instruction, as a clobber mask.
fn inst_clobbers(inst: Inst) -> u8 {
    match inst {
        Inst::MovImm32 { reg, .. }
        | Inst::MovImm32SxR64 { reg, .. }
        | Inst::LoadRspDisp8R32 { reg, .. }
        | Inst::LoadRspDisp8R64 { reg, .. } => reg_bit(reg),
        Inst::MovRegReg64 { dst, .. } => reg_bit(dst),
        Inst::XorEaxEax => reg_bit(Reg::Rax),
        // `syscall` clobbers `%rax` (return value) and — once ABOM
        // rewrites the site into a call — `%rcx` as well.
        Inst::Syscall => reg_bit(Reg::Rax) | reg_bit(Reg::Rcx),
        Inst::PushRbp | Inst::AddRspImm8 { .. } | Inst::SubRspImm8 { .. } => reg_bit(Reg::Rsp),
        Inst::PopRbp => reg_bit(Reg::Rsp) | reg_bit(Reg::Rbp),
        Inst::Leave => reg_bit(Reg::Rsp) | reg_bit(Reg::Rbp),
        Inst::Nop
        | Inst::Ret
        | Inst::Int3
        | Inst::Ud2
        | Inst::StoreRspDisp8R64 { .. }
        | Inst::CallAbsIndirect { .. }
        | Inst::CallRel32 { .. }
        | Inst::JmpRel8 { .. }
        | Inst::JmpRel32 { .. }
        | Inst::JccRel8 { .. }
        | Inst::TestEaxEax => 0,
    }
}

/// Clobbers contributed by the own body of node `k` (calls folded in by
/// the caller's fixpoint, except unresolved calls which pin everything).
fn own_clobbers(k: usize, disasm: &Disassembly, cfg: &Cfg, cg: &CallGraph) -> u8 {
    if cg.has_unresolved_call[k] {
        return CLOBBER_ALL;
    }
    let mut mask = 0u8;
    for &b in &cg.bodies[k] {
        for &(_, d) in &disasm.insts[cfg.blocks[b].insts.clone()] {
            mask |= inst_clobbers(d.inst);
        }
    }
    mask
}

/// Straight-line `%rax` effect of the entry block of the function headed
/// by block `head`.
fn entry_block_rax_effect(
    head: usize,
    disasm: &Disassembly,
    cfg: &Cfg,
    cg: &CallGraph,
    summaries: &Summaries,
) -> RaxEffect {
    let mut effect = RaxEffect::Preserved;
    for id in cfg.blocks[head].insts.clone() {
        let inst = disasm.insts[id].1.inst;
        match inst {
            Inst::MovImm32 { reg: Reg::Rax, imm } => effect = RaxEffect::Const(i64::from(imm)),
            Inst::MovImm32SxR64 { reg: Reg::Rax, imm } => effect = RaxEffect::Const(i64::from(imm)),
            Inst::XorEaxEax => effect = RaxEffect::Const(0),
            Inst::CallRel32 { .. } | Inst::CallAbsIndirect { .. } => {
                let callee = cg
                    .target_of(id)
                    .map_or(RaxEffect::Unknown, |t| summaries.summary(t).rax);
                if callee != RaxEffect::Preserved {
                    effect = callee;
                }
            }
            Inst::Syscall => effect = RaxEffect::Unknown,
            Inst::Ret => return effect,
            _ => {
                if inst_clobbers(inst) & reg_bit(Reg::Rax) != 0 {
                    effect = RaxEffect::Unknown;
                }
            }
        }
    }
    // Fell off the entry block into more control flow: keep the claim
    // only if the whole function provably never writes `%rax`.
    if summaries.summary(head).clobbers & reg_bit(Reg::Rax) == 0 {
        RaxEffect::Preserved
    } else {
        RaxEffect::Unknown
    }
}
