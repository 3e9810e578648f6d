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

use std::collections::BTreeMap;

use xc_isa::inst::{Inst, Reg};

use crate::callgraph::CallGraph;
use crate::cfg::Cfg;
use crate::disasm::Disassembly;
use crate::profile::{AbsIntProfile, NoProbe, Probe};
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

    /// The constant value, if this is a `Const`.
    pub fn as_const(self) -> Option<i64> {
        match self {
            AbsValue::Const { v, .. } => Some(v),
            _ => None,
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

    /// Writes `reg`, reporting whether the value actually moved — the
    /// transfer function's dirty bit is the OR of these.
    fn set_reg(&mut self, reg: Reg, v: AbsValue) -> bool {
        let slot = &mut self.regs[reg.code() as usize];
        if *slot == v {
            false
        } else {
            *slot = v;
            true
        }
    }

    /// Drops every tracked slot, reporting whether any existed.
    fn clear_slots(&mut self) -> bool {
        if self.slots.is_empty() {
            false
        } else {
            self.slots.clear();
            true
        }
    }

    /// Pointwise join. Slots join by key intersection (absent = `Top`).
    fn join(&self, other: &AbsState) -> AbsState {
        let mut regs = [AbsValue::Top; 8];
        for (i, slot) in regs.iter_mut().enumerate() {
            *slot = self.regs[i].join(other.regs[i]);
        }
        let mut slots = BTreeMap::new();
        for (&k, &v) in &self.slots {
            if let Some(&w) = other.slots.get(&k) {
                let j = v.join(w);
                if j != AbsValue::Top {
                    slots.insert(k, j);
                }
            }
        }
        AbsState { regs, slots }
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

/// Result of the interprocedural pass.
///
/// Pre-states are interned: `states` is a dense arena and `state_in`
/// maps instruction ids to arena ids, so the many program points that
/// share one abstract state (every instruction that does not move the
/// lattice) share one allocation instead of each holding a clone.
#[derive(Debug, Clone, Default)]
pub struct AbsInt {
    /// Interned abstract states (the copy-on-write arena).
    states: Vec<AbsState>,
    /// Per instruction id: the arena id of its pre-state, `None` where
    /// the instruction was never reached.
    state_in: Vec<Option<u32>>,
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
    /// The interned pre-state of instruction `inst` (an id), if reached.
    pub fn state_at(&self, inst: usize) -> Option<&AbsState> {
        let id = (*self.state_in.get(inst)?)?;
        Some(&self.states[id as usize])
    }

    /// The abstract `%rax` value just before instruction `inst` (an id;
    /// [`AbsValue::Unreached`] if the point was never reached).
    pub fn rax_at(&self, inst: usize) -> AbsValue {
        self.state_at(inst)
            .map_or(AbsValue::Unreached, |s| s.reg(Reg::Rax))
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

    /// Runs the fixpoint with a counting probe attached, returning the
    /// analysis plus its worklist counters. [`AbsInt::analyze`]
    /// monomorphizes the same driver against a no-op probe, so the
    /// production path pays nothing for the instrumentation seam.
    pub fn analyze_profiled(
        disasm: &Disassembly,
        cfg: &Cfg,
        cg: &CallGraph,
        summaries: &Summaries,
    ) -> (AbsInt, AbsIntProfile) {
        let mut probe = AbsIntProfile::default();
        let out = Self::analyze_with(disasm, cfg, cg, summaries, &mut probe);
        (out, probe)
    }

    /// The worklist driver behind both entry points.
    ///
    /// Block in-states are *interned*: the arena (`AbsInt::states`)
    /// holds the actual `AbsState`s and `block_in` maps block ids to
    /// arena ids. The arena is copy-on-write — `owned[id]`
    /// says whether block `id` is the sole referent of its slot. When a
    /// popped block's transfer chain leaves the state untouched (the
    /// per-pop dirty bit stays clear), successors receive the in-state
    /// *by id* instead of by clone, and both sides drop ownership so a
    /// later join interns a fresh slot rather than mutating a shared
    /// one. Join order, widening points and the pop schedule
    /// (lowest block id first) do not depend on the sharing; only the
    /// clone traffic does, which [`Probe::state_cloned`] /
    /// [`Probe::state_shared`] account for (each share replaces what
    /// the pre-CoW driver cloned, so `cloned + shared` is the old clone
    /// count).
    pub(crate) fn analyze_with<P: Probe>(
        disasm: &Disassembly,
        cfg: &Cfg,
        cg: &CallGraph,
        summaries: &Summaries,
        probe: &mut P,
    ) -> AbsInt {
        let window = u16::from(STACK_WINDOW_SLOTS) * 8;
        let blocks = cfg.blocks.len();
        let mut arena: Vec<AbsState> = Vec::with_capacity(blocks);
        let mut block_in: Vec<Option<u32>> = vec![None; blocks];
        let mut owned: Vec<bool> = vec![false; blocks];
        let mut visits: Vec<u32> = vec![0; blocks];
        let mut work = Worklist::new(blocks);
        for &e in &disasm.entries {
            if let Some(id) = cfg.block_at(e) {
                if block_in[id].is_none() {
                    arena.push(AbsState::top());
                    block_in[id] = Some((arena.len() - 1) as u32);
                    owned[id] = true;
                }
                work.insert(id);
            }
        }

        // Scratch out-state, refreshed per pop (the one unavoidable
        // copy per fixpoint iteration — `clone_from` reuses its
        // allocations where the collections allow).
        let mut scratch = AbsState::top();

        while let Some(id) = work.pop_first() {
            probe.block_popped();
            visits[id] += 1;
            let cur = block_in[id].expect("queued block has a state") as usize;
            if visits[id] > BLOCK_VISIT_CAP {
                if owned[id] {
                    arena[cur] = AbsState::top();
                } else {
                    arena.push(AbsState::top());
                    block_in[id] = Some((arena.len() - 1) as u32);
                    owned[id] = true;
                }
            }
            let in_id = block_in[id].expect("queued block has a state");
            scratch.clone_from(&arena[in_id as usize]);
            probe.state_cloned();
            let block = &cfg.blocks[id];
            let mut dirty = false;
            for inst in block.insts.clone() {
                let (at, d) = disasm.insts[inst];
                if let Some(tid) = resolved_call_target(cg, inst, d.inst) {
                    let seed = scratch.call_seed();
                    let m = merge_into(
                        &mut arena,
                        &mut block_in,
                        &mut owned,
                        probe,
                        tid,
                        &seed,
                        None,
                    );
                    if m.changed {
                        work.insert(tid);
                        // A self-targeted seed may have joined into our
                        // own (owned) slot in place; don't offer that
                        // slot's id to successors as the clean in-state.
                        dirty |= tid == id;
                    }
                }
                dirty |= transfer(&mut scratch, d.inst, inst, at, window, cg, summaries);
            }
            // A clean chain means the out-state *is* the in-state, so
            // successors may share its arena id.
            let out_id = if dirty { None } else { Some(in_id) };
            for &sid in block.succs() {
                let m = merge_into(
                    &mut arena,
                    &mut block_in,
                    &mut owned,
                    probe,
                    sid,
                    &scratch,
                    out_id,
                );
                if m.shared {
                    // Two blocks now reference the slot; neither may
                    // join into it in place.
                    owned[id] = false;
                }
                if m.changed {
                    work.insert(sid);
                }
            }
        }

        // Converged: materialise per-instruction pre-states in order.
        // Instructions whose transfer left the state untouched share
        // the previous arena id; only a lattice-moving instruction
        // interns a fresh state.
        let mut state_in = vec![None; disasm.insts.len()];
        for (id, block) in cfg.blocks.iter().enumerate() {
            let Some(mut cur_id) = block_in[id] else {
                continue;
            };
            scratch.clone_from(&arena[cur_id as usize]);
            probe.state_cloned();
            let mut dirty = false;
            for inst in block.insts.clone() {
                if dirty {
                    arena.push(scratch.clone());
                    probe.state_cloned();
                    cur_id = (arena.len() - 1) as u32;
                    dirty = false;
                } else {
                    probe.state_shared();
                }
                state_in[inst] = Some(cur_id);
                let (at, d) = disasm.insts[inst];
                dirty |= transfer(&mut scratch, d.inst, inst, at, window, cg, summaries);
            }
        }
        AbsInt {
            states: arena,
            state_in,
        }
    }
}

/// What [`merge_into`] did: whether the join moved the target's lattice
/// (re-queue it) and whether the incoming state was adopted by arena id
/// (the donor must then give up in-place mutation rights).
struct MergeOutcome {
    changed: bool,
    shared: bool,
}

/// Merges `state` into block `id`'s in-state under the copy-on-write
/// discipline. `src` carries the incoming state's arena id when it is
/// already interned (a clean out-state); a first merge then shares the
/// id instead of cloning. Joins mutate in place only when the target
/// owns its slot; otherwise the joined state is interned fresh so
/// sharers never observe the write.
fn merge_into<P: Probe>(
    arena: &mut Vec<AbsState>,
    block_in: &mut [Option<u32>],
    owned: &mut [bool],
    probe: &mut P,
    id: usize,
    state: &AbsState,
    src: Option<u32>,
) -> MergeOutcome {
    let outcome = match block_in[id] {
        Some(cur) => {
            let old = &arena[cur as usize];
            let joined = old.join(state);
            let changed = &joined != old;
            if changed {
                if owned[id] {
                    arena[cur as usize] = joined;
                } else {
                    arena.push(joined);
                    block_in[id] = Some((arena.len() - 1) as u32);
                    owned[id] = true;
                }
            }
            MergeOutcome {
                changed,
                shared: false,
            }
        }
        None => match src {
            Some(sid) => {
                block_in[id] = Some(sid);
                owned[id] = false;
                probe.state_shared();
                MergeOutcome {
                    changed: true,
                    shared: true,
                }
            }
            None => {
                arena.push(state.clone());
                block_in[id] = Some((arena.len() - 1) as u32);
                owned[id] = true;
                probe.state_cloned();
                MergeOutcome {
                    changed: true,
                    shared: false,
                }
            }
        },
    };
    probe.state_merged(outcome.changed);
    outcome
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
/// (mutates `state` in place). Returns whether the state actually moved
/// — the copy-on-write driver uses this dirty bit to share untouched
/// states by arena id.
fn transfer(
    state: &mut AbsState,
    inst: Inst,
    id: usize,
    at: u64,
    window: u16,
    cg: &CallGraph,
    summaries: &Summaries,
) -> bool {
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
            state.set_reg(dst, v)
        }
        Inst::LoadRspDisp8R64 { reg, disp } => {
            let v = state
                .slots
                .get(&disp)
                .copied()
                .unwrap_or(AbsValue::Top)
                .redef(at, 5);
            state.set_reg(reg, v)
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
            state.set_reg(reg, v)
        }
        Inst::StoreRspDisp8R64 { reg, disp } => {
            // An 8-byte store invalidates any tracked slot it overlaps,
            // then records the stored value at `disp` when it is inside
            // the tracked window and informative.
            let lo = disp.saturating_sub(7);
            let hi = disp.saturating_add(7);
            let new = if u16::from(disp) < window {
                Some(state.reg(reg)).filter(|&v| v != AbsValue::Top)
            } else {
                None
            };
            let stale: Vec<u8> = state
                .slots
                .range(lo..=hi)
                .map(|(&k, _)| k)
                .filter(|&k| k != disp)
                .collect();
            let mut changed = !stale.is_empty();
            for k in stale {
                state.slots.remove(&k);
            }
            match new {
                Some(v) => changed |= state.slots.insert(disp, v) != Some(v),
                None => changed |= state.slots.remove(&disp).is_some(),
            }
            changed
        }
        Inst::Syscall => {
            let mut changed = state.set_reg(Reg::Rax, AbsValue::Top);
            changed |= state.set_reg(Reg::Rcx, AbsValue::Top);
            changed | state.clear_slots()
        }
        Inst::CallRel32 { .. } | Inst::CallAbsIndirect { .. } => {
            let mut changed = match resolved_call_target(cg, id, inst) {
                Some(target) => {
                    let s = summaries.summary(target);
                    let pre_rax = state.reg(Reg::Rax);
                    let mut changed = false;
                    for code in 0..8u8 {
                        if s.clobbers & (1 << code) != 0 {
                            changed |= state.regs[code as usize] != AbsValue::Top;
                            state.regs[code as usize] = AbsValue::Top;
                        }
                    }
                    let rax = match s.rax {
                        RaxEffect::Preserved => pre_rax,
                        // A summary constant has no caller-side defining
                        // instruction, so it never yields a region.
                        RaxEffect::Const(v) => AbsValue::Const { v, def: None },
                        RaxEffect::ArgReg(_) | RaxEffect::Unknown => {
                            if s.clobbers & reg_bit(Reg::Rax) != 0 {
                                AbsValue::Top
                            } else {
                                pre_rax
                            }
                        }
                    };
                    changed | state.set_reg(Reg::Rax, rax)
                }
                None => {
                    let changed = state.regs != [AbsValue::Top; 8];
                    state.regs = [AbsValue::Top; 8];
                    changed
                }
            };
            changed |= state.clear_slots();
            changed
        }
        Inst::PushRbp | Inst::AddRspImm8 { .. } | Inst::SubRspImm8 { .. } => {
            state.set_reg(Reg::Rsp, AbsValue::Top) | state.clear_slots()
        }
        Inst::PopRbp | Inst::Leave => {
            state.set_reg(Reg::Rsp, AbsValue::Top)
                | state.set_reg(Reg::Rbp, AbsValue::Top)
                | state.clear_slots()
        }
        Inst::Nop
        | Inst::Ret
        | Inst::Int3
        | Inst::Ud2
        | Inst::TestEaxEax
        | Inst::JmpRel8 { .. }
        | Inst::JmpRel32 { .. }
        | Inst::JccRel8 { .. } => false,
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
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        a.label("noisy").unwrap();
        a.inst(Inst::Syscall); // clobbers rax + rcx
        a.inst(Inst::Ret);
        let (d, ai) = run(a);
        let state = ai.state_at(d.id_of(after_call).unwrap()).unwrap();
        // rax was clobbered by the callee's syscall; rbx survived.
        assert_eq!(state.reg(Reg::Rax), AbsValue::Top);
        assert_eq!(state.reg(Reg::Rbx).as_const(), Some(11));
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
