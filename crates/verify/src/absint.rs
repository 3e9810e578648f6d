//! Interprocedural abstract interpretation over the CFG.
//!
//! This replaces the v1 single-register forward pass with a worklist
//! fixpoint that tracks an abstract value for **all eight GPRs** plus a
//! bounded window of `rsp`-relative stack slots, propagated *across call
//! edges*: a call site seeds its resolved callee's entry state with the
//! caller's registers, and the caller continues with the callee's
//! [`crate::summaries::FnSummary`] applied. That is what lets a syscall
//! number materialised in a caller (`mov $39, %edi; call shim`) reach
//! the `syscall` inside a libc-style identity shim as a *constant with a
//! named defining instruction* — the fact the upgrade pass
//! ([`crate::verifier`]) needs to turn an `Unknown` verdict into a
//! patchable region.
//!
//! ## Lattice
//!
//! [`AbsValue`] is a flat constant domain widened through intervals:
//! `Unreached ⊑ Const ⊑ Interval ⊑ Top`. Joining two *equal* constants
//! keeps the value but drops the defining site unless it is also equal —
//! a value that is constant along all paths but defined in two places is
//! still constant (good for diagnostics) yet yields no single region to
//! patch. Every copy or reload **re-defines**: the def site moves to the
//! copy, so the patchable region starts at the *latest* instruction that
//! materialises the value before the syscall.
//!
//! All values in this ISA originate from immediates (there is no
//! arithmetic on registers), so interval endpoints are drawn from the
//! finite set of program constants and the fixpoint terminates; a
//! per-block visit cap widens to `Top` as defence in depth.
//!
//! ## Driver
//!
//! The fixpoint keeps one [`AbsState`] per block (its in-state), and an
//! incoming edge state joins into it in place. Once it converges, one
//! more pass over every reached block records the `%rax` value before
//! each instruction, the only fact the verifier reads
//! ([`AbsInt::rax_at`] at `syscall` ids); the other registers and the
//! stack slots are dropped with the block states.

use std::collections::BTreeMap;

use xc_isa::inst::{Inst, Reg};

use crate::callgraph::CallGraph;
use crate::cfg::Cfg;
use crate::disasm::Disassembly;
use crate::profile::{NoProbe, Probe};
use crate::summaries::{reg_bit, RaxEffect, Summaries};

/// Abstract value of one register or stack slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsValue {
    /// No path reaches this point (bottom).
    Unreached,
    /// The value is `v` on every path. `def` names the single
    /// instruction (address, length) that materialises it when that
    /// instruction is unique — only then can a detour region be built.
    Const {
        /// The constant.
        v: i64,
        /// Unique defining instruction, if any.
        def: Option<(u64, u8)>,
    },
    /// The value lies within `[lo, hi]` (join of unequal constants).
    Interval {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// No claim (top).
    Top,
}

impl AbsValue {
    /// Least upper bound.
    pub fn join(self, other: AbsValue) -> AbsValue {
        use AbsValue::*;
        match (self, other) {
            (Unreached, x) | (x, Unreached) => x,
            (Top, _) | (_, Top) => Top,
            (Const { v: a, def: da }, Const { v: b, def: db }) => {
                if a == b {
                    Const {
                        v: a,
                        def: if da == db { da } else { None },
                    }
                } else {
                    Interval {
                        lo: a.min(b),
                        hi: a.max(b),
                    }
                }
            }
            (Const { v, .. }, Interval { lo, hi }) | (Interval { lo, hi }, Const { v, .. }) => {
                Interval {
                    lo: lo.min(v),
                    hi: hi.max(v),
                }
            }
            (Interval { lo: a, hi: b }, Interval { lo: c, hi: d }) => Interval {
                lo: a.min(c),
                hi: b.max(d),
            },
        }
    }

    /// The value after being copied by the instruction at `at` (length
    /// `len`): constants are re-defined to the copy site, everything
    /// else is unchanged.
    fn redef(self, at: u64, len: u8) -> AbsValue {
        match self {
            AbsValue::Const { v, .. } => AbsValue::Const {
                v,
                def: Some((at, len)),
            },
            other => other,
        }
    }
}

/// Abstract machine state at one program point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsState {
    /// One value per GPR, indexed by [`Reg::code`].
    pub regs: [AbsValue; 8],
    /// Tracked `rsp`-relative slots, keyed by byte displacement. An
    /// absent key means `Top` (untracked), **not** unreached.
    pub slots: BTreeMap<u8, AbsValue>,
}

impl AbsState {
    /// The no-information state (function entry from outside).
    pub fn top() -> AbsState {
        AbsState {
            regs: [AbsValue::Top; 8],
            slots: BTreeMap::new(),
        }
    }

    /// Value of `reg`.
    pub fn reg(&self, reg: Reg) -> AbsValue {
        self.regs[reg.code() as usize]
    }

    fn set_reg(&mut self, reg: Reg, v: AbsValue) {
        self.regs[reg.code() as usize] = v;
    }

    /// Joins `other` into this state pointwise, reporting whether it
    /// moved. Slots join by key intersection (absent = `Top`): a slot
    /// survives only where both sides track it.
    fn join_from(&mut self, other: &AbsState) -> bool {
        let mut changed = false;
        for (mine, &theirs) in self.regs.iter_mut().zip(&other.regs) {
            let j = mine.join(theirs);
            changed |= j != *mine;
            *mine = j;
        }
        self.slots
            .retain(|k, v| match other.slots.get(k).map(|&w| v.join(w)) {
                Some(j) if j != AbsValue::Top => {
                    changed |= j != *v;
                    *v = j;
                    true
                }
                _ => {
                    changed = true;
                    false
                }
            });
        changed
    }

    /// State a resolved callee starts in when entered from here: the
    /// caller's registers travel through the call, the caller's frame
    /// does not (`rsp` moved).
    fn call_seed(&self) -> AbsState {
        AbsState {
            regs: self.regs,
            slots: BTreeMap::new(),
        }
    }
}

/// Result of the interprocedural pass: the abstract `%rax` value before
/// every instruction.
#[derive(Debug, Clone, Default)]
pub struct AbsInt {
    /// Per instruction id: `%rax` just before it
    /// ([`AbsValue::Unreached`] where the instruction was never reached).
    rax_in: Vec<AbsValue>,
}

/// A block is re-queued at most this many times before its in-state is
/// widened straight to `Top` (defence in depth; see module docs).
const BLOCK_VISIT_CAP: u32 = 64;

/// How many 8-byte `rsp`-relative slots the analysis tracks per frame:
/// displacements at or beyond `8 × STACK_WINDOW_SLOTS` bytes are
/// untracked.
const STACK_WINDOW_SLOTS: u8 = 16;

/// Bitset worklist over dense block ids. `pop_first` returns the lowest
/// set id; block ids ascend with block addresses, so the schedule pops
/// the lowest queued address first — one cache line per 64 blocks
/// instead of a node allocation per entry.
struct Worklist {
    words: Vec<u64>,
    /// Lowest word index that may contain a set bit (monotone scan
    /// cursor, rewound on insert).
    hint: usize,
}

impl Worklist {
    fn new(blocks: usize) -> Worklist {
        Worklist {
            words: vec![0; blocks.div_ceil(64)],
            hint: 0,
        }
    }

    #[inline]
    fn insert(&mut self, id: usize) {
        self.words[id / 64] |= 1u64 << (id % 64);
        self.hint = self.hint.min(id / 64);
    }

    #[inline]
    fn pop_first(&mut self) -> Option<usize> {
        while self.hint < self.words.len() {
            let word = &mut self.words[self.hint];
            if *word != 0 {
                let bit = word.trailing_zeros() as usize;
                *word &= *word - 1;
                return Some(self.hint * 64 + bit);
            }
            self.hint += 1;
        }
        None
    }
}

impl AbsInt {
    /// The abstract `%rax` value just before instruction `inst` (an id;
    /// [`AbsValue::Unreached`] if the point was never reached).
    pub fn rax_at(&self, inst: usize) -> AbsValue {
        self.rax_in
            .get(inst)
            .copied()
            .unwrap_or(AbsValue::Unreached)
    }

    /// Runs the fixpoint.
    pub fn analyze(
        disasm: &Disassembly,
        cfg: &Cfg,
        cg: &CallGraph,
        summaries: &Summaries,
    ) -> AbsInt {
        Self::analyze_with(disasm, cfg, cg, summaries, &mut NoProbe)
    }

    /// The worklist driver behind [`AbsInt::analyze`] and the profiled
    /// pipeline ([`crate::Verifier::analyze_profiled`] counts its pops).
    ///
    /// Each block holds one optional in-state; an edge or call seed
    /// joins into it in place and re-queues the block when the join
    /// moves it. A popped block's in-state is copied once into a
    /// reusable scratch, which the block's transfer chain then rewrites
    /// into its out-state.
    pub(crate) fn analyze_with<P: Probe>(
        disasm: &Disassembly,
        cfg: &Cfg,
        cg: &CallGraph,
        summaries: &Summaries,
        probe: &mut P,
    ) -> AbsInt {
        let window = u16::from(STACK_WINDOW_SLOTS) * 8;
        let blocks = cfg.blocks.len();
        let mut block_in: Vec<Option<AbsState>> = vec![None; blocks];
        let mut visits: Vec<u32> = vec![0; blocks];
        let mut work = Worklist::new(blocks);
        for &e in &disasm.entries {
            if let Some(id) = cfg.block_at(e) {
                block_in[id].get_or_insert_with(AbsState::top);
                work.insert(id);
            }
        }

        // Scratch out-state, refreshed per pop (`clone_from` reuses its
        // allocations where the collections allow).
        let mut scratch = AbsState::top();

        while let Some(id) = work.pop_first() {
            probe.block_popped();
            visits[id] += 1;
            if visits[id] > BLOCK_VISIT_CAP {
                block_in[id] = Some(AbsState::top());
            }
            scratch.clone_from(block_in[id].as_ref().expect("queued block has a state"));
            let block = &cfg.blocks[id];
            for inst in block.insts.clone() {
                let (at, d) = disasm.insts[inst];
                if let Some(tid) = resolved_call_target(cg, inst, d.inst) {
                    if merge_into(&mut block_in[tid], &scratch.call_seed()) {
                        work.insert(tid);
                    }
                }
                transfer(&mut scratch, d.inst, inst, at, window, cg, summaries);
            }
            for &sid in block.succs() {
                if merge_into(&mut block_in[sid], &scratch) {
                    work.insert(sid);
                }
            }
        }

        // Converged: replay each reached block once, keeping `%rax`.
        let mut rax_in = vec![AbsValue::Unreached; disasm.insts.len()];
        for (state, block) in block_in.iter().zip(&cfg.blocks) {
            let Some(state) = state else {
                continue;
            };
            scratch.clone_from(state);
            for inst in block.insts.clone() {
                rax_in[inst] = scratch.reg(Reg::Rax);
                let (at, d) = disasm.insts[inst];
                transfer(&mut scratch, d.inst, inst, at, window, cg, summaries);
            }
        }
        AbsInt { rax_in }
    }
}

/// Joins `state` into one block's in-state, reporting whether it moved
/// (a block's first state always does).
fn merge_into(slot: &mut Option<AbsState>, state: &AbsState) -> bool {
    match slot {
        Some(cur) => cur.join_from(state),
        None => {
            *slot = Some(state.clone());
            true
        }
    }
}

/// Resolved callee head (block id) of instruction `id`, when it is a
/// call that resolves in-image.
fn resolved_call_target(cg: &CallGraph, id: usize, inst: Inst) -> Option<usize> {
    match inst {
        Inst::CallRel32 { .. } | Inst::CallAbsIndirect { .. } => cg.target_of(id),
        _ => None,
    }
}

/// One-instruction transfer function for instruction `id` at `at`
/// (mutates `state` in place).
fn transfer(
    state: &mut AbsState,
    inst: Inst,
    id: usize,
    at: u64,
    window: u16,
    cg: &CallGraph,
    summaries: &Summaries,
) {
    match inst {
        Inst::MovImm32 { reg, imm } => state.set_reg(
            reg,
            AbsValue::Const {
                v: i64::from(imm),
                def: Some((at, 5)),
            },
        ),
        Inst::MovImm32SxR64 { reg, imm } => state.set_reg(
            reg,
            AbsValue::Const {
                v: i64::from(imm),
                def: Some((at, 7)),
            },
        ),
        Inst::XorEaxEax => state.set_reg(
            Reg::Rax,
            AbsValue::Const {
                v: 0,
                def: Some((at, 2)),
            },
        ),
        Inst::MovRegReg64 { dst, src } => {
            let v = state.reg(src).redef(at, 3);
            state.set_reg(dst, v);
        }
        Inst::LoadRspDisp8R64 { reg, disp } => {
            let v = state
                .slots
                .get(&disp)
                .copied()
                .unwrap_or(AbsValue::Top)
                .redef(at, 5);
            state.set_reg(reg, v);
        }
        Inst::LoadRspDisp8R32 { reg, disp } => {
            // 32-bit load zero-extends; only constants already in u32
            // range survive the truncation claim.
            let v = match state.slots.get(&disp) {
                Some(AbsValue::Const { v, .. }) if (0..=i64::from(u32::MAX)).contains(v) => {
                    AbsValue::Const {
                        v: *v,
                        def: Some((at, 4)),
                    }
                }
                _ => AbsValue::Top,
            };
            state.set_reg(reg, v);
        }
        Inst::StoreRspDisp8R64 { reg, disp } => {
            // An 8-byte store invalidates any tracked slot it overlaps,
            // then records the stored value at `disp` when it is inside
            // the tracked window and informative.
            let overlap = disp.saturating_sub(7)..=disp.saturating_add(7);
            let new = if u16::from(disp) < window {
                Some(state.reg(reg)).filter(|&v| v != AbsValue::Top)
            } else {
                None
            };
            state
                .slots
                .retain(|&k, _| k == disp || !overlap.contains(&k));
            match new {
                Some(v) => state.slots.insert(disp, v),
                None => state.slots.remove(&disp),
            };
        }
        Inst::Syscall => {
            state.set_reg(Reg::Rax, AbsValue::Top);
            state.set_reg(Reg::Rcx, AbsValue::Top);
            state.slots.clear();
        }
        Inst::CallRel32 { .. } | Inst::CallAbsIndirect { .. } => {
            match resolved_call_target(cg, id, inst) {
                Some(target) => {
                    let s = summaries.summary(target);
                    let pre_rax = state.reg(Reg::Rax);
                    for code in 0..8u8 {
                        if s.clobbers & (1 << code) != 0 {
                            state.regs[code as usize] = AbsValue::Top;
                        }
                    }
                    let rax = match s.rax {
                        RaxEffect::Preserved => pre_rax,
                        // A summary constant has no caller-side defining
                        // instruction, so it never yields a region.
                        RaxEffect::Const(v) => AbsValue::Const { v, def: None },
                        RaxEffect::Unknown => {
                            if s.clobbers & reg_bit(Reg::Rax) != 0 {
                                AbsValue::Top
                            } else {
                                pre_rax
                            }
                        }
                    };
                    state.set_reg(Reg::Rax, rax);
                }
                None => state.regs = [AbsValue::Top; 8],
            }
            state.slots.clear();
        }
        Inst::PushRbp | Inst::AddRspImm8 { .. } | Inst::SubRspImm8 { .. } => {
            state.set_reg(Reg::Rsp, AbsValue::Top);
            state.slots.clear();
        }
        Inst::PopRbp | Inst::Leave => {
            state.set_reg(Reg::Rsp, AbsValue::Top);
            state.set_reg(Reg::Rbp, AbsValue::Top);
            state.slots.clear();
        }
        Inst::Nop
        | Inst::Ret
        | Inst::Int3
        | Inst::Ud2
        | Inst::TestEaxEax
        | Inst::JmpRel8 { .. }
        | Inst::JmpRel32 { .. }
        | Inst::JccRel8 { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disasm::disassemble_image;
    use xc_isa::asm::Assembler;

    fn run(a: Assembler) -> (Disassembly, AbsInt) {
        let image = a.finish().unwrap();
        let d = disassemble_image(&image);
        let cfg = Cfg::build(&d);
        let cg = CallGraph::build(&d, &cfg);
        let summaries = Summaries::build(&d, &cfg, &cg);
        let a = AbsInt::analyze(&d, &cfg, &cg, &summaries);
        (d, a)
    }

    /// Instruction ids of every `syscall`.
    fn syscall_ids(d: &Disassembly) -> Vec<usize> {
        (0..d.insts.len())
            .filter(|&id| d.insts[id].1.inst == Inst::Syscall)
            .collect()
    }

    #[test]
    fn constant_flows_through_identity_shim() {
        let mut a = Assembler::new(0x1000);
        a.label("wrapper").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rdi,
            imm: 39,
        });
        a.call_to("shim");
        a.inst(Inst::Ret);
        a.label("shim").unwrap();
        let copy_at = a.here();
        a.inst(Inst::MovRegReg64 {
            dst: Reg::Rax,
            src: Reg::Rdi,
        });
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let (d, ai) = run(a);
        let syscalls = syscall_ids(&d);
        assert_eq!(syscalls.len(), 1);
        assert_eq!(
            ai.rax_at(syscalls[0]),
            AbsValue::Const {
                v: 39,
                def: Some((copy_at, 3)),
            }
        );
    }

    #[test]
    fn two_callers_with_different_numbers_join_to_interval() {
        let mut a = Assembler::new(0x1000);
        a.label("caller_a").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rdi,
            imm: 0,
        });
        a.call_to("shim");
        a.inst(Inst::Ret);
        a.label("caller_b").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rdi,
            imm: 60,
        });
        a.call_to("shim");
        a.inst(Inst::Ret);
        a.label("shim").unwrap();
        a.inst(Inst::MovRegReg64 {
            dst: Reg::Rax,
            src: Reg::Rdi,
        });
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let (d, ai) = run(a);
        let syscalls = syscall_ids(&d);
        assert_eq!(ai.rax_at(syscalls[0]), AbsValue::Interval { lo: 0, hi: 60 });
    }

    #[test]
    fn spill_and_reload_keeps_the_constant_and_redefs_to_the_load() {
        let mut a = Assembler::new(0x1000);
        a.label("f").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rdi,
            imm: 7,
        });
        a.inst(Inst::StoreRspDisp8R64 {
            reg: Reg::Rdi,
            disp: 0x10,
        });
        let load_at = a.here();
        a.inst(Inst::LoadRspDisp8R64 {
            reg: Reg::Rax,
            disp: 0x10,
        });
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let (d, ai) = run(a);
        let syscalls = syscall_ids(&d);
        assert_eq!(
            ai.rax_at(syscalls[0]),
            AbsValue::Const {
                v: 7,
                def: Some((load_at, 5)),
            }
        );
    }

    #[test]
    fn overlapping_store_invalidates_tracked_slot() {
        let mut a = Assembler::new(0x1000);
        a.label("f").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rdi,
            imm: 7,
        });
        a.inst(Inst::StoreRspDisp8R64 {
            reg: Reg::Rdi,
            disp: 0x10,
        });
        // Unknown value clobbers [0x14, 0x1c) which overlaps slot 0x10.
        a.inst(Inst::StoreRspDisp8R64 {
            reg: Reg::Rsi,
            disp: 0x14,
        });
        a.inst(Inst::LoadRspDisp8R64 {
            reg: Reg::Rax,
            disp: 0x10,
        });
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let (d, ai) = run(a);
        let syscalls = syscall_ids(&d);
        assert_eq!(ai.rax_at(syscalls[0]), AbsValue::Top);
    }

    #[test]
    fn call_applies_callee_clobbers_but_preserves_the_rest() {
        let mut a = Assembler::new(0x1000);
        a.label("caller").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rbx,
            imm: 11,
        });
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 1,
        });
        a.call_to("noisy");
        let after_call = a.here();
        a.inst(Inst::MovRegReg64 {
            dst: Reg::Rax,
            src: Reg::Rbx,
        });
        let read_rbx = a.here();
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        a.label("noisy").unwrap();
        a.inst(Inst::Syscall); // clobbers rax + rcx
        a.inst(Inst::Ret);
        let (d, ai) = run(a);
        // rax was clobbered by the callee's syscall; rbx survived, and
        // the copy carries it to the caller's syscall.
        assert_eq!(ai.rax_at(d.id_of(after_call).unwrap()), AbsValue::Top);
        assert_eq!(
            ai.rax_at(d.id_of(read_rbx).unwrap()),
            AbsValue::Const {
                v: 11,
                def: Some((after_call, 3)),
            }
        );
    }

    #[test]
    fn entry_state_is_top() {
        let mut a = Assembler::new(0x1000);
        a.label("f").unwrap();
        let first = a.here();
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let (d, ai) = run(a);
        assert_eq!(ai.rax_at(d.id_of(first).unwrap()), AbsValue::Top);
    }
}
