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
//!   [`RaxEffect::Const`], `mov %reg, %rax` from an unwritten register
//!   gives [`RaxEffect::ArgReg`], and a function that provably never
//!   writes `%rax` is [`RaxEffect::Preserved`].

use std::collections::BTreeMap;

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
    /// The callee returns its caller's value of this register
    /// (libc-style `syscall(nr, ...)` identity shims).
    ArgReg(Reg),
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
    /// Function head → its summary.
    pub by_fn: BTreeMap<u64, FnSummary>,
}

impl Summaries {
    /// Summary for `head`, conservatively [`FnSummary::UNRESOLVED`] for
    /// unknown heads.
    pub fn summary(&self, head: u64) -> FnSummary {
        self.by_fn
            .get(&head)
            .copied()
            .unwrap_or(FnSummary::UNRESOLVED)
    }

    /// Computes summaries bottom-up to a fixpoint (capped at
    /// `MAX_SUMMARY_DEPTH` growth rounds, collapsing to
    /// clobber-everything if the cap is hit before stability).
    pub fn build(disasm: &Disassembly, cfg: &Cfg, cg: &CallGraph) -> Summaries {
        let own: BTreeMap<u64, u8> = cg
            .nodes
            .iter()
            .map(|&head| (head, own_clobbers(head, disasm, cfg, cg)))
            .collect();
        let mut clobbers = own.clone();
        let mut stable = false;
        for _ in 0..MAX_SUMMARY_DEPTH {
            let mut changed = false;
            for &head in &cg.nodes {
                let mut mask = own[&head];
                for callee in &cg.callees[&head] {
                    mask |= clobbers.get(callee).copied().unwrap_or(CLOBBER_ALL);
                }
                let slot = clobbers.get_mut(&head).expect("seeded above");
                if *slot != mask {
                    *slot = mask;
                    changed = true;
                }
            }
            if !changed {
                stable = true;
                break;
            }
        }
        if !stable {
            for mask in clobbers.values_mut() {
                *mask = CLOBBER_ALL;
            }
        }

        // Effects start pessimistic, so every refinement round is sound
        // on its own and the cap needs no collapse step.
        let mut summaries = Summaries {
            by_fn: clobbers
                .iter()
                .map(|(&head, &mask)| {
                    (
                        head,
                        FnSummary {
                            clobbers: mask,
                            rax: RaxEffect::Unknown,
                        },
                    )
                })
                .collect(),
        };
        for _ in 0..MAX_SUMMARY_DEPTH {
            let mut changed = false;
            for &head in &cg.nodes {
                let effect = entry_block_rax_effect(head, disasm, cfg, cg, &summaries);
                let cur = summaries.by_fn.get_mut(&head).expect("seeded above");
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

/// Clobbers contributed by `head`'s own body (calls folded in by the
/// caller's fixpoint, except unresolved calls which pin everything).
fn own_clobbers(head: u64, disasm: &Disassembly, cfg: &Cfg, cg: &CallGraph) -> u8 {
    if cg.has_unresolved_call.get(&head).copied().unwrap_or(true) {
        return CLOBBER_ALL;
    }
    let mut mask = 0u8;
    for start in &cg.bodies[&head] {
        for at in &cfg.blocks[start].insts {
            mask |= inst_clobbers(disasm.insts[at].inst);
        }
    }
    mask
}

/// Straight-line `%rax` effect of `head`'s entry block.
fn entry_block_rax_effect(
    head: u64,
    disasm: &Disassembly,
    cfg: &Cfg,
    cg: &CallGraph,
    summaries: &Summaries,
) -> RaxEffect {
    let Some(block) = cfg.blocks.get(&head) else {
        return RaxEffect::Unknown;
    };
    let mut effect = RaxEffect::Preserved;
    let mut written = 0u8;
    for &at in &block.insts {
        let inst = disasm.insts[&at].inst;
        match inst {
            Inst::MovImm32 { reg: Reg::Rax, imm } => effect = RaxEffect::Const(i64::from(imm)),
            Inst::MovImm32SxR64 { reg: Reg::Rax, imm } => effect = RaxEffect::Const(i64::from(imm)),
            Inst::XorEaxEax => effect = RaxEffect::Const(0),
            Inst::MovRegReg64 { dst: Reg::Rax, src } => {
                effect = if written & reg_bit(src) == 0 {
                    RaxEffect::ArgReg(src)
                } else {
                    RaxEffect::Unknown
                };
            }
            Inst::CallRel32 { .. } | Inst::CallAbsIndirect { .. } => {
                let callee_effect = match cg.site_targets.get(&at) {
                    Some(&t) => summaries.summary(t).rax,
                    None => RaxEffect::Unknown,
                };
                effect = match callee_effect {
                    RaxEffect::Preserved => effect,
                    RaxEffect::Const(v) => RaxEffect::Const(v),
                    // The callee's "argument register" is in *its* frame;
                    // translating through two frames is not worth it.
                    RaxEffect::ArgReg(_) | RaxEffect::Unknown => RaxEffect::Unknown,
                };
                written |= match cg.site_targets.get(&at) {
                    Some(&t) => summaries.summary(t).clobbers,
                    None => CLOBBER_ALL,
                };
                continue;
            }
            Inst::Syscall => effect = RaxEffect::Unknown,
            Inst::Ret => return effect,
            _ => {
                if inst_clobbers(inst) & reg_bit(Reg::Rax) != 0 {
                    effect = RaxEffect::Unknown;
                }
            }
        }
        written |= inst_clobbers(inst);
    }
    // Fell off the entry block into more control flow: keep the claim
    // only if the whole function provably never writes `%rax`.
    if summaries.summary(head).clobbers & reg_bit(Reg::Rax) == 0 {
        RaxEffect::Preserved
    } else {
        RaxEffect::Unknown
    }
}
