//! Basic-block control-flow graph over a [`Disassembly`].
//!
//! Because the `xc-isa` subset has **no indirect jumps** — the only
//! indirect control transfer is `call *disp32`, which returns to its
//! fall-through — the set of direct branch targets recovered here is the
//! *complete* set of intra-image control-transfer destinations (see
//! [`xc_isa::inst::BranchKind`]). That completeness is what lets the
//! verifier prove a detour region free of interior jump targets rather
//! than merely failing to find one.
//!
//! Indirect call *destinations* (the vsyscall table) escape the image;
//! they are collected in [`Cfg::indirect_sites`] so callers can reason
//! about them conservatively.
//!
//! Blocks live in one start-sorted `Vec`, so a block's id is its index;
//! each holds the range of instruction ids it covers and its successors'
//! block ids. Every later stage runs its worklist over these ids.

use std::ops::Range;

use xc_isa::inst::BranchKind;

use crate::disasm::Disassembly;

/// How control reaches an edge's destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Execution falls off the end of the source block.
    FallThrough,
    /// An unconditional `jmp rel8`/`jmp rel32`.
    Jump,
    /// The taken side of a `jcc rel8`.
    CondTaken,
    /// A `call rel32` (control returns to the fall-through later).
    Call,
}

/// One control-flow edge, `src` instruction → `target` address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Address of the transferring instruction.
    pub src: u64,
    /// Destination address.
    pub target: u64,
    /// Transfer kind.
    pub kind: EdgeKind,
}

/// A maximal straight-line run of instructions.
#[derive(Debug, Clone)]
pub struct BasicBlock {
    /// Address of the first instruction.
    pub start: u64,
    /// One past the last byte of the last instruction.
    pub end: u64,
    /// Ids of the block's instructions (consecutive in the sweep).
    pub insts: Range<usize>,
    /// Successor block ids; a block ends in at most one branch, so it
    /// has at most two (the taken side first).
    succ: [usize; 2],
    succ_len: u8,
}

impl BasicBlock {
    /// Successor block ids, in edge order (a conditional branch's taken
    /// side before its fall-through).
    pub fn succs(&self) -> &[usize] {
        &self.succ[..usize::from(self.succ_len)]
    }

    fn add_succ(&mut self, block: usize) {
        if !self.succs().contains(&block) {
            self.succ[usize::from(self.succ_len)] = block;
            self.succ_len += 1;
        }
    }
}

/// The control-flow graph of one image.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Blocks in ascending start-address order; a block's id is its
    /// index. The blocks partition the sweep: every instruction id lies
    /// in exactly one block's range.
    pub(crate) blocks: Vec<BasicBlock>,
    /// Every direct control-flow edge (complete, by the subset property):
    /// the instructions' own edges in address order, then the implicit
    /// fall-throughs between blocks in block order.
    pub edges: Vec<Edge>,
    /// Addresses of `call *disp32` instructions — the only control
    /// transfers whose destination is not statically known. Destinations
    /// are outside the image (vsyscall area); the return address is the
    /// in-image fall-through.
    pub indirect_sites: Vec<u64>,
}

impl Cfg {
    /// Builds the CFG from the linear-sweep instructions.
    ///
    /// Leaders are: the descent entry points, every direct branch target
    /// that is a sweep boundary, every instruction following a
    /// block-terminating instruction (`ret`, `jmp`, `jcc`, `int3`,
    /// `ud2`), and every instruction following an undecodable gap.
    pub fn build(disasm: &Disassembly) -> Cfg {
        let insts = &disasm.insts;
        let mut leader = vec![false; insts.len()];
        let mark = |leader: &mut [bool], addr: u64| {
            if let Some(id) = disasm.id_of(addr) {
                leader[id] = true;
            }
        };
        for &entry in &disasm.entries {
            mark(&mut leader, entry);
        }
        let mut edges = Vec::new();
        let mut indirect_sites = Vec::new();
        let mut prev_end = disasm.base();
        for (id, &(at, d)) in insts.iter().enumerate() {
            let next = at + d.len as u64;
            // Instructions right after a gap start a fresh block.
            if at != prev_end {
                leader[id] = true;
            }
            prev_end = next;
            match d.inst.branch_kind() {
                BranchKind::DirectJump => {
                    let t = d.inst.branch_target(at).expect("direct jump has target");
                    edges.push(Edge {
                        src: at,
                        target: t,
                        kind: EdgeKind::Jump,
                    });
                    mark(&mut leader, t);
                    mark(&mut leader, next);
                }
                BranchKind::ConditionalJump => {
                    let t = d.inst.branch_target(at).expect("jcc has target");
                    edges.push(Edge {
                        src: at,
                        target: t,
                        kind: EdgeKind::CondTaken,
                    });
                    edges.push(Edge {
                        src: at,
                        target: next,
                        kind: EdgeKind::FallThrough,
                    });
                    mark(&mut leader, t);
                    mark(&mut leader, next);
                }
                BranchKind::DirectCall => {
                    let t = d.inst.branch_target(at).expect("call rel32 has target");
                    edges.push(Edge {
                        src: at,
                        target: t,
                        kind: EdgeKind::Call,
                    });
                    mark(&mut leader, t);
                    // A call does not end the block: control returns to
                    // the fall-through, which stays in the same block.
                }
                BranchKind::IndirectCall => indirect_sites.push(at),
                BranchKind::Return | BranchKind::Trap => mark(&mut leader, next),
                BranchKind::None => {}
            }
        }

        // Carve blocks: each runs from a leader up to the next leader, a
        // gap, or its first block-terminating instruction. The first
        // instruction is the image base (an entry) or follows a gap, and
        // every instruction after a terminator or a gap is a leader, so
        // the blocks cover every instruction.
        let mut blocks: Vec<BasicBlock> = Vec::new();
        let mut id = 0;
        while id < insts.len() {
            let first = id;
            let (terminated, end) = loop {
                let (at, d) = insts[id];
                id += 1;
                let end = at + d.len as u64;
                let terminated = matches!(
                    d.inst.branch_kind(),
                    BranchKind::DirectJump
                        | BranchKind::ConditionalJump
                        | BranchKind::Return
                        | BranchKind::Trap
                );
                let runs_on = insts.get(id).is_some_and(|&(a, _)| a == end) && !leader[id];
                if terminated || !runs_on {
                    break (terminated, end);
                }
            };
            // Implicit fall-through into the next leader.
            if !terminated && insts.get(id).is_some_and(|&(a, _)| a == end) {
                edges.push(Edge {
                    src: insts[id - 1].0,
                    target: end,
                    kind: EdgeKind::FallThrough,
                });
            }
            blocks.push(BasicBlock {
                start: insts[first].0,
                end,
                insts: first..id,
                succ: [0; 2],
                succ_len: 0,
            });
        }

        // Resolve successor lists (call edges excluded: control returns).
        // A non-call edge leaves from its block's last instruction.
        let mut cfg = Cfg {
            blocks,
            edges,
            indirect_sites,
        };
        for i in 0..cfg.edges.len() {
            let e = cfg.edges[i];
            if e.kind == EdgeKind::Call {
                continue;
            }
            if let (Some(from), Some(to)) = (cfg.block_of(e.src), cfg.block_at(e.target)) {
                cfg.blocks[from].add_succ(to);
            }
        }
        cfg
    }

    /// The blocks in ascending start-address order; a block's id is its
    /// index here.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// Id of the block starting at `addr`.
    pub fn block_at(&self, addr: u64) -> Option<usize> {
        self.blocks.binary_search_by_key(&addr, |b| b.start).ok()
    }

    /// Id of the block containing the instruction at `addr`.
    pub fn block_of(&self, addr: u64) -> Option<usize> {
        let id = self
            .blocks
            .partition_point(|b| b.start <= addr)
            .checked_sub(1)?;
        (addr < self.blocks[id].end).then_some(id)
    }

    /// All edges whose destination lies in `[lo, hi)`.
    pub fn edges_into(&self, lo: u64, hi: u64) -> impl Iterator<Item = &Edge> {
        self.edges
            .iter()
            .filter(move |e| (lo..hi).contains(&e.target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disasm::disassemble_image;
    use xc_isa::asm::Assembler;
    use xc_isa::inst::{Cond, Inst, Reg};

    fn cfg_of(a: Assembler) -> Cfg {
        let image = a.finish().unwrap();
        Cfg::build(&disassemble_image(&image))
    }

    #[test]
    fn straight_line_is_one_block() {
        let mut a = Assembler::new(0x1000);
        a.label("f").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 0,
        });
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let cfg = cfg_of(a);
        assert_eq!(cfg.blocks.len(), 1);
        let b = &cfg.blocks[0];
        assert_eq!(b.start, 0x1000);
        assert_eq!(b.insts, 0..3);
        assert!(b.succs().is_empty());
        assert_eq!(cfg.block_of(0x1007), Some(0));
    }

    #[test]
    fn conditional_splits_blocks_and_edges() {
        // The libpthread-style cancellable wrapper shape.
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
        let cfg = cfg_of(a);
        // Blocks: [mov,test,jcc] [nop] [syscall,ret].
        assert_eq!(cfg.blocks.len(), 3);
        let entry = &cfg.blocks[0];
        assert_eq!(entry.start, 0x1000);
        // The taken side (skip) comes before the fall-through (nop).
        assert_eq!(entry.succs(), [2, 1]);
        assert_eq!(cfg.blocks[1].insts, 3..4);
        assert_eq!(cfg.block_at(cfg.blocks[2].start), Some(2));
        assert_eq!(cfg.block_at(cfg.blocks[2].start + 1), None);
    }

    #[test]
    fn call_does_not_split_block_but_records_edge() {
        let mut a = Assembler::new(0x1000);
        a.label("main").unwrap();
        a.inst(Inst::Nop);
        a.call_to("helper");
        a.inst(Inst::Nop);
        a.inst(Inst::Ret);
        a.label("helper").unwrap();
        a.inst(Inst::Ret);
        let cfg = cfg_of(a);
        let main = &cfg.blocks[0];
        // nop, call, nop, ret all in one block.
        assert_eq!(main.insts.len(), 4);
        assert!(main.succs().is_empty());
        assert!(cfg
            .edges
            .iter()
            .any(|e| e.kind == EdgeKind::Call && cfg.block_at(e.target).is_some()));
    }

    #[test]
    fn indirect_call_is_recorded_as_escape_site() {
        let mut a = Assembler::new(0x1000);
        a.label("patched").unwrap();
        a.inst(Inst::CallAbsIndirect {
            target: 0xffff_ffff_ff60_0000,
        });
        a.inst(Inst::Ret);
        let cfg = cfg_of(a);
        assert_eq!(cfg.indirect_sites, vec![0x1000]);
    }

    #[test]
    fn edges_into_finds_interior_entrances() {
        let mut a = Assembler::new(0x1000);
        a.label("w").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 1,
        }); // 0x1000..0x1005
        a.inst(Inst::Nop); // 0x1005
        a.inst(Inst::Syscall); // 0x1006
        a.inst(Inst::Ret);
        a.label("other").unwrap();
        a.jmp_to("mid");
        a.label("mid").unwrap();
        a.inst(Inst::Ret);
        let image = a.finish().unwrap();
        let mid = image.symbol("mid").unwrap();
        let cfg = Cfg::build(&disassemble_image(&image));
        let hits: Vec<u64> = cfg.edges_into(mid, mid + 1).map(|e| e.target).collect();
        assert_eq!(hits, vec![mid]);
        // Nothing jumps into the wrapper interior.
        assert_eq!(cfg.edges_into(0x1001, 0x1008).count(), 0);
    }
}
