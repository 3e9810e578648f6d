//! Whole-image call graph over the hybrid disassembly.
//!
//! Nodes are *function heads*: the image's external entry points plus
//! every resolved call destination. Direct `call rel32` targets resolve
//! trivially; `call *disp32` targets resolve when the absolute address is
//! provably constant (it is encoded in the instruction) **and** lands on
//! an in-image sweep boundary — the jump-table/indirect case the subset
//! admits. Everything else (vsyscall-page calls) stays an unresolved
//! escape, which the summary layer treats as clobber-everything.
//!
//! A function's *body* is the set of basic blocks reachable from its head
//! along intraprocedural successor edges (call edges excluded: control
//! returns). Bodies may overlap when code is shared by fall-through —
//! that is fine, every consumer of a body is conservative over a
//! superset.

use xc_isa::inst::Inst;

use crate::cfg::Cfg;
use crate::disasm::Disassembly;

/// The call graph of one image, over the CFG's block ids and the
/// disassembly's instruction ids.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// Function heads (block ids), ascending: entries plus resolved call
    /// targets.
    pub(crate) nodes: Vec<usize>,
    /// Resolved call sites as `(call instruction id, callee head block
    /// id)`, ascending by instruction id. Sites whose destination cannot
    /// be proven constant and in-image are *absent* (the conservative
    /// escape set).
    pub(crate) site_targets: Vec<(usize, usize)>,
    /// Per node, index-aligned with `nodes`: the block ids of its
    /// intraprocedural body, ascending.
    pub(crate) bodies: Vec<Vec<usize>>,
    /// Per node: the heads of the functions it calls (resolved only),
    /// ascending.
    pub(crate) callees: Vec<Vec<usize>>,
    /// Per node: whether its body contains an unresolved call.
    pub(crate) has_unresolved_call: Vec<bool>,
}

impl CallGraph {
    /// Builds the call graph from the disassembly and CFG.
    pub fn build(disasm: &Disassembly, cfg: &Cfg) -> CallGraph {
        let mut site_targets = Vec::new();
        for (id, &(at, d)) in disasm.insts.iter().enumerate() {
            let target = match d.inst {
                Inst::CallRel32 { .. } => {
                    let t = d.inst.branch_target(at).expect("call rel32 has target");
                    cfg.block_at(t)
                }
                // The indirect destination is a compile-time constant
                // encoded in the instruction; it resolves exactly when
                // it names an in-image block head.
                Inst::CallAbsIndirect { target } => cfg.block_at(target),
                _ => continue,
            };
            if let Some(head) = target {
                site_targets.push((id, head));
            }
        }

        let mut nodes: Vec<usize> = disasm
            .entries
            .iter()
            .filter_map(|&e| cfg.block_at(e))
            .chain(site_targets.iter().map(|&(_, head)| head))
            .collect();
        nodes.sort_unstable();
        nodes.dedup();

        let mut cg = CallGraph {
            site_targets,
            ..CallGraph::default()
        };
        // `seen[b] == k + 1` marks block `b` as part of node `k`'s body.
        let mut seen = vec![0usize; cfg.blocks.len()];
        let mut stack = Vec::new();
        for (k, &head) in nodes.iter().enumerate() {
            let mut body = Vec::new();
            stack.push(head);
            while let Some(b) = stack.pop() {
                if seen[b] == k + 1 {
                    continue;
                }
                seen[b] = k + 1;
                body.push(b);
                stack.extend_from_slice(cfg.blocks[b].succs());
            }
            body.sort_unstable();
            let mut callees = Vec::new();
            let mut unresolved = false;
            for &b in &body {
                for id in cfg.blocks[b].insts.clone() {
                    if !matches!(
                        disasm.insts[id].1.inst,
                        Inst::CallRel32 { .. } | Inst::CallAbsIndirect { .. }
                    ) {
                        continue;
                    }
                    match cg.target_of(id) {
                        Some(t) => callees.push(t),
                        None => unresolved = true,
                    }
                }
            }
            callees.sort_unstable();
            callees.dedup();
            cg.bodies.push(body);
            cg.callees.push(callees);
            cg.has_unresolved_call.push(unresolved);
        }
        cg.nodes = nodes;
        cg
    }

    /// The resolved callee head (block id) of the call instruction
    /// `inst`, if it resolves.
    pub fn target_of(&self, inst: usize) -> Option<usize> {
        let i = self
            .site_targets
            .binary_search_by_key(&inst, |&(site, _)| site)
            .ok()?;
        Some(self.site_targets[i].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disasm::disassemble_image;
    use xc_isa::asm::Assembler;
    use xc_isa::inst::Reg;

    fn graph_of(a: Assembler) -> (CallGraph, Cfg, Disassembly) {
        let image = a.finish().unwrap();
        let d = disassemble_image(&image);
        let cfg = Cfg::build(&d);
        (CallGraph::build(&d, &cfg), cfg, d)
    }

    /// Index into `nodes` of the function headed by block `head`.
    fn node(cg: &CallGraph, head: usize) -> Option<usize> {
        cg.nodes.binary_search(&head).ok()
    }

    /// The resolved callee head address of the call at `site`.
    fn target_addr(cg: &CallGraph, cfg: &Cfg, d: &Disassembly, site: u64) -> Option<u64> {
        let head = cg.target_of(d.id_of(site)?)?;
        Some(cfg.blocks[head].start)
    }

    #[test]
    fn direct_call_resolves_and_makes_callee_a_node() {
        let mut a = Assembler::new(0x1000);
        a.label("main").unwrap();
        a.call_to("helper");
        a.inst(Inst::Ret);
        a.label("helper").unwrap();
        a.inst(Inst::Ret);
        let (cg, cfg, d) = graph_of(a);
        assert_eq!(cfg.block_at(0x1000), Some(0));
        assert_eq!(node(&cg, 0), Some(0));
        let helper = cg.target_of(0).unwrap();
        assert_eq!(target_addr(&cg, &cfg, &d, 0x1000), Some(0x1006));
        assert!(cg.nodes.contains(&helper));
        assert_eq!(cg.callees[0], vec![helper]);
        assert!(!cg.has_unresolved_call[0]);
    }

    #[test]
    fn vsyscall_indirect_call_is_unresolved() {
        let mut a = Assembler::new(0x1000);
        a.label("patched").unwrap();
        a.inst(Inst::CallAbsIndirect {
            target: 0xffff_ffff_ff60_0008,
        });
        a.inst(Inst::Ret);
        let (cg, _, d) = graph_of(a);
        assert_eq!(cg.target_of(d.id_of(0x1000).unwrap()), None);
        assert!(cg.has_unresolved_call[0]);
        assert!(cg.site_targets.is_empty());
    }

    #[test]
    fn in_image_constant_indirect_call_resolves() {
        // call *0x1008 where 0x1008 is a real function head.
        let mut a = Assembler::new(0x1000);
        a.label("main").unwrap();
        a.inst(Inst::CallAbsIndirect { target: 0x1008 });
        a.inst(Inst::Ret);
        assert_eq!(a.here(), 0x1008);
        a.label("helper").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 1,
        });
        a.inst(Inst::Ret);
        let (cg, cfg, d) = graph_of(a);
        assert_eq!(target_addr(&cg, &cfg, &d, 0x1000), Some(0x1008));
        assert!(node(&cg, cfg.block_at(0x1008).unwrap()).is_some());
    }

    #[test]
    fn bodies_stay_intraprocedural() {
        let mut a = Assembler::new(0x1000);
        a.label("main").unwrap();
        a.call_to("helper");
        a.inst(Inst::Ret);
        a.label("helper").unwrap();
        a.inst(Inst::Nop);
        a.inst(Inst::Ret);
        let (cg, cfg, d) = graph_of(a);
        let helper_head = cg.target_of(d.id_of(0x1000).unwrap()).unwrap();
        let main_body = &cg.bodies[node(&cg, 0).unwrap()];
        // The callee's blocks are not part of the caller's body.
        assert!(!main_body.contains(&helper_head));
        assert_eq!(
            cg.bodies[node(&cg, helper_head).unwrap()],
            vec![helper_head]
        );
        assert_eq!(
            target_addr(&cg, &cfg, &d, 0x1000),
            Some(cfg.blocks[helper_head].start)
        );
    }
}
