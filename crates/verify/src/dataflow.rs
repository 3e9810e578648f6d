//! Register dataflow over the CFG.
//!
//! Two analyses back the per-site verdicts:
//!
//! * **Forward `%rax` reaching-value** — which syscall number (if any)
//!   provably reaches each `syscall` instruction, and from which single
//!   defining `mov`. ABOM's 7/9-byte replacements fold the number into an
//!   indexed vsyscall entry, so the number must be one compile-time
//!   constant with one definition site adjacent in the patch region.
//! * **Backward `%rcx` liveness** — `syscall` clobbers `%rcx` (saved
//!   `%rip`) and `%r11` (saved `RFLAGS`); the replacement `call` preserves
//!   both. Rewriting is observation-equivalent only where no live use of
//!   `%rcx` follows the site. `%r11` is not representable in the 8-register
//!   `xc-isa` subset, so its liveness is vacuously false and needs no
//!   analysis — noted here so the asymmetry is deliberate, not forgotten.
//!
//! Both analyses are conservative in the same direction: when in doubt,
//! `%rax` becomes [`RaxValue::Unknown`] and `%rcx` becomes live, each of
//! which blocks a `Safe` verdict.

use xc_isa::inst::{Inst, Reg};

use crate::cfg::Cfg;
use crate::disasm::Disassembly;

/// The abstract value of `%rax` at a program point (a join semilattice:
/// `Unreached ⊑ Const ⊑ MultipleDefs ⊑ Unknown`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaxValue {
    /// No path reaches this point (⊥).
    Unreached,
    /// A single `mov` instruction's constant reaches here on every path.
    Const {
        /// The constant (sign-extended for `MovImm32SxR64`).
        nr: i64,
        /// Address of the defining instruction.
        mov_addr: u64,
        /// Encoded length of the defining instruction.
        mov_len: u8,
    },
    /// A compile-time constant reaches here, but from more than one
    /// definition site — no single region covers the definition.
    MultipleDefs,
    /// Anything: loaded from memory, copied from a register, a syscall or
    /// call return value, or an entry-point assumption (⊤).
    Unknown,
}

impl RaxValue {
    /// Least upper bound of two values.
    pub fn join(self, other: RaxValue) -> RaxValue {
        use RaxValue::*;
        match (self, other) {
            (Unreached, x) | (x, Unreached) => x,
            (Unknown, _) | (_, Unknown) => Unknown,
            (Const { mov_addr: a, .. }, Const { mov_addr: b, .. }) if a == b => self,
            _ => MultipleDefs,
        }
    }

    /// Applies one instruction's effect on `%rax`.
    pub fn transfer(self, at: u64, inst: &Inst) -> RaxValue {
        match *inst {
            Inst::MovImm32 { reg: Reg::Rax, imm } => RaxValue::Const {
                nr: i64::from(imm),
                mov_addr: at,
                mov_len: 5,
            },
            Inst::MovImm32SxR64 { reg: Reg::Rax, imm } => RaxValue::Const {
                nr: i64::from(imm),
                mov_addr: at,
                mov_len: 7,
            },
            Inst::XorEaxEax => RaxValue::Const {
                nr: 0,
                mov_addr: at,
                mov_len: 2,
            },
            Inst::LoadRspDisp8R32 { reg: Reg::Rax, .. }
            | Inst::LoadRspDisp8R64 { reg: Reg::Rax, .. }
            | Inst::MovRegReg64 { dst: Reg::Rax, .. }
            | Inst::Syscall
            | Inst::CallRel32 { .. }
            | Inst::CallAbsIndirect { .. } => RaxValue::Unknown,
            _ => self,
        }
    }
}

/// Both dataflow facts at one `syscall` instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyscallFacts {
    /// Instruction id of the `syscall`.
    pub inst: usize,
    /// `%rax` value on entry to the `syscall`.
    pub rax: RaxValue,
    /// Whether `%rcx` is live after the `syscall` executes.
    pub rcx_live_out: bool,
}

/// Results of both dataflow passes.
///
/// The fixpoints run per block; the verifier reads `%rax` and `%rcx`
/// only at `syscall` instructions, so those are the only program points
/// whose facts are kept, replayed from the block-level fixpoints.
#[derive(Debug, Clone)]
pub struct Dataflow {
    /// Facts at every `syscall` instruction, ascending by instruction id
    /// (every instruction lies in a block, so none is missing).
    sites: Vec<SyscallFacts>,
}

impl Dataflow {
    /// Runs both analyses to fixpoint over `cfg`.
    pub fn run(disasm: &Disassembly, cfg: &Cfg) -> Dataflow {
        let rax_block_in = rax_forward(disasm, cfg);
        let rcx_block_out = rcx_backward(disasm, cfg);
        let mut sites = Vec::new();
        for (b, block) in cfg.blocks.iter().enumerate() {
            let first = sites.len();
            let mut v = rax_block_in[b];
            for id in block.insts.clone() {
                let (at, d) = disasm.insts[id];
                if d.inst == Inst::Syscall {
                    sites.push(SyscallFacts {
                        inst: id,
                        rax: v,
                        rcx_live_out: false,
                    });
                }
                v = v.transfer(at, &d.inst);
            }
            let mut live = rcx_block_out[b];
            let mut pending = sites.len();
            for id in block.insts.clone().rev() {
                if pending > first && sites[pending - 1].inst == id {
                    pending -= 1;
                    sites[pending].rcx_live_out = live;
                }
                live = rcx_step(live, &disasm.insts[id].1.inst);
            }
        }
        Dataflow { sites }
    }

    /// Facts at every `syscall` instruction, ascending by instruction id.
    pub fn sites(&self) -> &[SyscallFacts] {
        &self.sites
    }

    /// The facts at the `syscall` with instruction id `inst`, if it is
    /// one.
    pub fn at(&self, inst: usize) -> Option<&SyscallFacts> {
        let i = self.sites.binary_search_by_key(&inst, |f| f.inst).ok()?;
        Some(&self.sites[i])
    }
}

/// Forward worklist pass: `%rax` value on entry to each block.
///
/// Block-entry boundary conditions: descent entry points and direct-call
/// targets start at `Unknown` (callers may pass anything); a block with no
/// predecessors and no entry marking is unreachable and stays `Unreached`.
/// The worklist starts with every block and pops the highest id first.
fn rax_forward(disasm: &Disassembly, cfg: &Cfg) -> Vec<RaxValue> {
    use crate::cfg::EdgeKind;

    let mut block_in = vec![RaxValue::Unreached; cfg.blocks.len()];
    for &entry in &disasm.entries {
        if let Some(b) = cfg.block_at(entry) {
            block_in[b] = RaxValue::Unknown;
        }
    }
    for e in &cfg.edges {
        if e.kind == EdgeKind::Call {
            if let Some(b) = cfg.block_at(e.target) {
                block_in[b] = RaxValue::Unknown;
            }
        }
    }

    let mut worklist: Vec<usize> = (0..cfg.blocks.len()).collect();
    let mut block_out: Vec<Option<RaxValue>> = vec![None; cfg.blocks.len()];
    while let Some(b) = worklist.pop() {
        let block = &cfg.blocks[b];
        let mut v = block_in[b];
        for &(at, d) in &disasm.insts[block.insts.clone()] {
            v = v.transfer(at, &d.inst);
        }
        if block_out[b] != Some(v) {
            block_out[b] = Some(v);
            for &succ in block.succs() {
                let joined = block_in[succ].join(v);
                if joined != block_in[succ] {
                    block_in[succ] = joined;
                    worklist.push(succ);
                }
            }
        }
    }
    block_in
}

/// `%rcx` access classification for the backward pass.
fn rcx_use_def(inst: &Inst) -> (bool, bool) {
    // (reads rcx, writes rcx)
    match *inst {
        // rcx is the 4th SysV argument register: assume every call reads it.
        Inst::CallRel32 { .. } | Inst::CallAbsIndirect { .. } => (true, false),
        // A spill publishes the current rcx value to memory: that is a read.
        Inst::StoreRspDisp8R64 { reg: Reg::Rcx, .. } => (true, false),
        Inst::MovRegReg64 { src: Reg::Rcx, dst } => (true, dst == Reg::Rcx),
        Inst::MovRegReg64 { dst: Reg::Rcx, .. }
        | Inst::MovImm32 { reg: Reg::Rcx, .. }
        | Inst::MovImm32SxR64 { reg: Reg::Rcx, .. }
        | Inst::LoadRspDisp8R32 { reg: Reg::Rcx, .. }
        | Inst::LoadRspDisp8R64 { reg: Reg::Rcx, .. } => (false, true),
        // syscall clobbers rcx with the return rip.
        Inst::Syscall => (false, true),
        _ => (false, false),
    }
}

/// `%rcx` liveness before `inst`, given its liveness after.
fn rcx_step(live: bool, inst: &Inst) -> bool {
    match rcx_use_def(inst) {
        (true, _) => true,
        (false, true) => false,
        (false, false) => live,
    }
}

/// Backward worklist pass: is `%rcx` live at each block's exit?
///
/// Exit boundary conditions: dead at `ret` (caller-saved per SysV) and at
/// traps; live when the block ends at an undecodable gap or falls off the
/// image (we cannot see the continuation). The worklist starts with every
/// block and pops the highest id first; a block whose entry liveness
/// changes queues its predecessors in ascending id order.
fn rcx_backward(disasm: &Disassembly, cfg: &Cfg) -> Vec<bool> {
    let blocks = &cfg.blocks;
    let exit_live: Vec<bool> = blocks
        .iter()
        .map(|block| match disasm.insts[block.insts.end - 1].1.inst {
            Inst::Ret | Inst::Int3 | Inst::Ud2 => false,
            // Jumps / jcc: liveness flows from successors instead.
            _ if !block.succs().is_empty() => false,
            // Block ends without successors for another reason (gap, image
            // edge, branch to a non-block address): assume live.
            _ => true,
        })
        .collect();

    // Predecessor lists, flattened: block `b`'s are
    // `preds[pred_start[b]..pred_start[b + 1]]`, in ascending id order.
    let mut pred_start = vec![0usize; blocks.len() + 1];
    for block in blocks {
        for &s in block.succs() {
            pred_start[s + 1] += 1;
        }
    }
    for b in 0..blocks.len() {
        pred_start[b + 1] += pred_start[b];
    }
    let mut fill = pred_start.clone();
    let mut preds = vec![0usize; pred_start[blocks.len()]];
    for (b, block) in blocks.iter().enumerate() {
        for &s in block.succs() {
            preds[fill[s]] = b;
            fill[s] += 1;
        }
    }

    let mut entry_live: Vec<Option<bool>> = vec![None; blocks.len()];
    let live_at_exit = |entry_live: &[Option<bool>], b: usize| {
        exit_live[b]
            || blocks[b]
                .succs()
                .iter()
                .any(|&s| entry_live[s].unwrap_or(false))
    };
    let mut worklist: Vec<usize> = (0..blocks.len()).collect();
    while let Some(b) = worklist.pop() {
        let mut live = live_at_exit(&entry_live, b);
        for &(_, d) in disasm.insts[blocks[b].insts.clone()].iter().rev() {
            live = rcx_step(live, &d.inst);
        }
        if entry_live[b] != Some(live) {
            entry_live[b] = Some(live);
            worklist.extend_from_slice(&preds[pred_start[b]..pred_start[b + 1]]);
        }
    }
    (0..blocks.len())
        .map(|b| live_at_exit(&entry_live, b))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disasm::disassemble_image;
    use xc_isa::asm::Assembler;
    use xc_isa::image::BinaryImage;
    use xc_isa::inst::Cond;

    /// The facts at each `syscall`, keyed by its address.
    struct Facts(Disassembly, Dataflow);

    impl Facts {
        fn of(image: &BinaryImage) -> Facts {
            let d = disassemble_image(image);
            let df = Dataflow::run(&d, &Cfg::build(&d));
            Facts(d, df)
        }

        fn at(&self, addr: u64) -> SyscallFacts {
            *self.1.at(self.0.id_of(addr).unwrap()).unwrap()
        }

        fn rax(&self, addr: u64) -> RaxValue {
            self.at(addr).rax
        }

        fn rcx_live_out(&self, addr: u64) -> bool {
            self.at(addr).rcx_live_out
        }
    }

    fn analyze(a: Assembler) -> Facts {
        Facts::of(&a.finish().unwrap())
    }

    #[test]
    fn const_reaches_syscall_in_straight_line() {
        let mut a = Assembler::new(0x1000);
        a.label("w").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 39,
        });
        a.inst(Inst::Syscall); // at 0x1005
        a.inst(Inst::Ret);
        let df = analyze(a);
        assert_eq!(
            df.rax(0x1005),
            RaxValue::Const {
                nr: 39,
                mov_addr: 0x1000,
                mov_len: 5
            }
        );
        // rcx is clobber-dead: nothing reads it before the ret.
        assert!(!df.rcx_live_out(0x1005));
    }

    #[test]
    fn const_survives_conditional_join() {
        // mov; test; je skip; nop; skip: syscall — one def, two paths.
        let mut a = Assembler::new(0x1000);
        a.label("w").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 3,
        });
        a.inst(Inst::TestEaxEax);
        a.jcc_to(Cond::E, "skip");
        a.inst(Inst::Nop);
        a.label("skip").unwrap();
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let image = a.finish().unwrap();
        let syscall_at = image.symbol("skip").unwrap();
        let df = Facts::of(&image);
        assert_eq!(
            df.rax(syscall_at),
            RaxValue::Const {
                nr: 3,
                mov_addr: 0x1000,
                mov_len: 5
            }
        );
    }

    #[test]
    fn two_defs_join_to_multiple_defs() {
        let mut a = Assembler::new(0x1000);
        a.label("w").unwrap();
        a.inst(Inst::TestEaxEax);
        a.jcc_to(Cond::E, "other");
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 1,
        });
        a.jmp_short_to("join");
        a.label("other").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 2,
        });
        a.label("join").unwrap();
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let image = a.finish().unwrap();
        let syscall_at = image.symbol("join").unwrap();
        let df = Facts::of(&image);
        assert_eq!(df.rax(syscall_at), RaxValue::MultipleDefs);
    }

    #[test]
    fn register_copy_and_stack_load_are_unknown() {
        let mut a = Assembler::new(0x1000);
        a.label("w").unwrap();
        a.inst(Inst::MovRegReg64 {
            dst: Reg::Rax,
            src: Reg::Rdi,
        });
        a.inst(Inst::Syscall); // 0x1003
        a.inst(Inst::LoadRspDisp8R64 {
            reg: Reg::Rax,
            disp: 8,
        });
        a.inst(Inst::Syscall); // 0x100a
        a.inst(Inst::Ret);
        let df = analyze(a);
        assert_eq!(df.rax(0x1003), RaxValue::Unknown);
        assert_eq!(df.rax(0x100a), RaxValue::Unknown);
    }

    #[test]
    fn rcx_read_after_syscall_is_live() {
        let mut a = Assembler::new(0x1000);
        a.label("w").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 0,
        });
        a.inst(Inst::Syscall); // 0x1005
        a.inst(Inst::MovRegReg64 {
            dst: Reg::Rdx,
            src: Reg::Rcx,
        });
        a.inst(Inst::Ret);
        let df = analyze(a);
        assert!(df.rcx_live_out(0x1005));
    }

    #[test]
    fn call_makes_rcx_conservatively_live() {
        let mut a = Assembler::new(0x1000);
        a.label("w").unwrap();
        a.inst(Inst::Syscall); // 0x1000
        a.call_to("helper");
        a.inst(Inst::Ret);
        a.label("helper").unwrap();
        a.inst(Inst::Ret);
        let df = analyze(a);
        assert!(df.rcx_live_out(0x1000));
    }

    #[test]
    fn rcx_write_kills_liveness() {
        let mut a = Assembler::new(0x1000);
        a.label("w").unwrap();
        a.inst(Inst::Syscall); // 0x1000
        a.inst(Inst::MovImm32 {
            reg: Reg::Rcx,
            imm: 0,
        });
        a.inst(Inst::MovRegReg64 {
            dst: Reg::Rdx,
            src: Reg::Rcx,
        });
        a.inst(Inst::Ret);
        let df = analyze(a);
        assert!(!df.rcx_live_out(0x1000));
    }
}
