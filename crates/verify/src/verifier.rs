//! The verifier: per-site verdicts.

use xc_isa::image::BinaryImage;
use xc_isa::inst::{Inst, Reg};

use crate::absint::{AbsInt, AbsValue};
use crate::callgraph::CallGraph;
use crate::cfg::Cfg;
use crate::dataflow::{Dataflow, RaxValue, SyscallFacts};
use crate::disasm::{disassemble_image, Disassembly};
use crate::profile::{NoProbe, PipelineProfile, Probe, Stage};
use crate::report::{
    ReasonChain, SiteKind, SiteReport, UnknownReason, UnsafeReason, Verdict, VerifyReport,
};
use crate::summaries::Summaries;

/// Highest syscall number with a dedicated vsyscall entry (the x86-64
/// table has ~335 entries in the kernel generation the paper used; we
/// round up). `xc_abom::table` re-exports it.
pub const MAX_SYSCALL_NR: u64 = 351;

/// Whether `nr` names a syscall with a dedicated vsyscall entry.
fn in_syscall_range(nr: i64) -> bool {
    u64::try_from(nr).is_ok_and(|n| n <= MAX_SYSCALL_NR)
}

/// Analysis parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifierConfig {
    /// Whether the interprocedural pass may upgrade
    /// `Unknown(NumberNotConstant | MultipleDefinitions)` verdicts to
    /// `Safe` [`SiteKind::PropagatedNumber`] sites. Upgrades are
    /// monotone: `Safe` and `Unsafe` verdicts are never touched.
    pub interprocedural_upgrades: bool,
}

impl Default for VerifierConfig {
    fn default() -> Self {
        VerifierConfig {
            interprocedural_upgrades: true,
        }
    }
}

/// The static patch-safety analyzer.
#[derive(Debug, Clone, Default)]
pub struct Verifier {
    config: VerifierConfig,
}

impl Verifier {
    /// A verifier with default configuration.
    pub fn new() -> Self {
        Verifier::default()
    }

    /// A verifier with explicit configuration.
    pub fn with_config(config: VerifierConfig) -> Self {
        Verifier { config }
    }

    /// This verifier's configuration (part of the [`crate::AnalysisCache`]
    /// key: analyses under different configurations must not alias).
    pub fn config(&self) -> &VerifierConfig {
        &self.config
    }

    /// Runs the full pipeline — disassembly, CFG construction, dataflow,
    /// call graph, summaries and abstract interpretation — and renders a
    /// verdict for every `syscall` site in `image`.
    pub fn analyze(&self, image: &BinaryImage) -> Analysis {
        self.analyze_with(image, &mut NoProbe)
    }

    /// [`Verifier::analyze`] with every stage timed (see [`Stage`]). The
    /// analysis is the same; only the profile is extra.
    pub fn analyze_profiled(&self, image: &BinaryImage) -> (Analysis, PipelineProfile) {
        let mut profile = PipelineProfile::start();
        let analysis = self.analyze_with(image, &mut profile);
        (analysis, profile)
    }

    /// The pipeline behind both entry points.
    fn analyze_with<P: Probe>(&self, image: &BinaryImage, probe: &mut P) -> Analysis {
        let disasm = disassemble_image(image);
        probe.stage_done(Stage::Disasm);
        let cfg = Cfg::build(&disasm);
        probe.stage_done(Stage::Cfg);
        let dataflow = Dataflow::run(&disasm, &cfg);
        probe.stage_done(Stage::Dataflow);
        let callgraph = CallGraph::build(&disasm, &cfg);
        probe.stage_done(Stage::CallGraph);
        let summaries = Summaries::build(&disasm, &cfg, &callgraph);
        probe.stage_done(Stage::Summaries);
        let absint = AbsInt::analyze_with(&disasm, &cfg, &callgraph, &summaries, probe);
        probe.stage_done(Stage::AbsInt);
        let mut analysis = Analysis {
            config: self.config,
            disasm,
            cfg,
            dataflow,
            callgraph,
            summaries,
            absint,
            report: VerifyReport::default(),
        };
        analysis.report = analysis.judge_all();
        probe.stage_done(Stage::Judge);
        analysis
    }
}

/// The completed analysis of one image.
#[derive(Debug, Clone)]
pub struct Analysis {
    config: VerifierConfig,
    /// The hybrid disassembly.
    pub disasm: Disassembly,
    /// The control-flow graph.
    pub cfg: Cfg,
    /// The dataflow fixpoints.
    pub dataflow: Dataflow,
    /// The whole-image call graph.
    pub callgraph: CallGraph,
    /// Per-function summaries.
    pub summaries: Summaries,
    /// The interprocedural abstract interpretation.
    pub absint: AbsInt,
    /// Per-site verdicts.
    pub report: VerifyReport,
}

impl Analysis {
    /// The per-site report.
    pub fn report(&self) -> &VerifyReport {
        &self.report
    }

    /// The verdict for the `syscall` at `syscall_addr`, if one exists
    /// there.
    pub fn verdict_at(&self, syscall_addr: u64) -> Option<Verdict> {
        self.report.site(syscall_addr).map(|s| s.verdict)
    }

    /// Judges every `syscall` site, in address order.
    fn judge_all(&self) -> VerifyReport {
        let sites = self
            .dataflow
            .sites()
            .iter()
            .map(|facts| self.judge_site(facts))
            .collect();
        VerifyReport { sites }
    }

    /// Judges the `syscall` whose dataflow facts are `facts`.
    fn judge_site(&self, facts: &SyscallFacts) -> SiteReport {
        let id = facts.inst;
        let syscall_addr = self.disasm.addr(id);

        // Pick the candidate patch region by a straight-line,
        // flow-insensitive walk, then let the CFG and dataflow refine or
        // veto it. This ordering matters: the offline patcher detours
        // exactly this region when the verdict is `Safe`, so the verdict
        // judges the bytes a detour would overwrite, including regions the
        // dataflow already knows are entered from elsewhere.
        let walk = self.syntactic_region(id);
        let (kind, number, mov_addr, mov_len, region) = if let Ok((mov, len, nr)) = walk {
            (
                SiteKind::ImmediateNumber,
                Some(nr),
                Some(mov),
                Some(len),
                Some((mov, mov + u64::from(len))),
            )
        } else if let Some((load_addr, load_len)) = self.adjacent_stack_load(id) {
            (
                SiteKind::StackNumber,
                None,
                Some(load_addr),
                Some(load_len),
                Some((load_addr, syscall_addr)),
            )
        } else {
            (SiteKind::Other, None, None, None, None)
        };

        let verdict = self.judge_region(facts, kind, number, region);

        // Interprocedural upgrade: only undecided number-tracking
        // verdicts are candidates, so `Safe` never regresses and proven
        // `Unsafe` structure is never overridden.
        let upgradable = matches!(
            verdict,
            Verdict::Unknown(UnknownReason::NumberNotConstant | UnknownReason::MultipleDefinitions)
        );
        if upgradable && self.config.interprocedural_upgrades {
            if let Some((nr, def_addr, def_len)) = self.try_upgrade(facts) {
                return SiteReport {
                    syscall_addr,
                    kind: SiteKind::PropagatedNumber,
                    number: Some(nr),
                    mov_addr: Some(def_addr),
                    mov_len: Some(def_len),
                    chain: ReasonChain::EMPTY,
                    verdict: Verdict::Safe,
                };
            }
        }

        let chain = self.chain_for(id, verdict, region, walk.err().flatten());
        SiteReport {
            syscall_addr,
            kind,
            number,
            mov_addr,
            mov_len,
            chain,
            verdict,
        }
    }

    /// Attempts to prove the `Unknown` site at `syscall_addr` patchable
    /// using the interprocedural constant: the abstract `%rax` value must
    /// be a constant with a **unique defining instruction** in front of
    /// the syscall, and the region `[def, syscall+2)` must be judged
    /// `Safe` by the same structural checks the v1 immediate path applies
    /// ([`Analysis::judge_region`]) — plus two more: the region must hold
    /// the detour's `jmp rel32`, and, since the defining instruction is
    /// *dropped* from the detour trampoline (the vsyscall entry supplies
    /// the number), nothing in the displaced interior may read `%rax`.
    ///
    /// Returns `(number, def_addr, def_len)` on success.
    fn try_upgrade(&self, facts: &SyscallFacts) -> Option<(i64, u64, u8)> {
        let syscall_addr = self.disasm.addr(facts.inst);
        let AbsValue::Const {
            v,
            def: Some((def_addr, def_len)),
        } = self.absint.rax_at(facts.inst)
        else {
            return None;
        };
        if !in_syscall_range(v) || def_addr >= syscall_addr {
            return None;
        }
        if syscall_addr + 2 - def_addr < 5 {
            return None; // detour needs room for a jmp rel32
        }
        let mov_end = def_addr + u64::from(def_len);
        let interior = self.disasm.ids_in(mov_end..syscall_addr);
        if self.disasm.insts[interior]
            .iter()
            .any(|&(_, d)| reads_rax(d.inst))
        {
            return None;
        }
        let region = Some((def_addr, mov_end));
        let verdict = self.judge_region(facts, SiteKind::PropagatedNumber, Some(v), region);
        (verdict == Verdict::Safe).then_some((v, def_addr, def_len))
    }

    /// Builds the causal chain for a non-`Safe` verdict: which
    /// instruction blocked the proof and where the abstract interpreter
    /// last saw the value defined. `walk_blocker` is the instruction that
    /// stopped [`Analysis::syntactic_region`]'s walk, if one did.
    fn chain_for(
        &self,
        id: usize,
        verdict: Verdict,
        region: Option<(u64, u64)>,
        walk_blocker: Option<u64>,
    ) -> ReasonChain {
        let definer = match self.absint.rax_at(id) {
            AbsValue::Const {
                def: Some((at, _)), ..
            } => Some(at),
            _ => None,
        };
        let blocker = match verdict {
            Verdict::Safe => return ReasonChain::EMPTY,
            Verdict::Unsafe(UnsafeReason::InteriorJumpTarget { target }) => Some(target),
            Verdict::Unsafe(UnsafeReason::InteriorBranchEscapes { src }) => Some(src),
            Verdict::Unsafe(UnsafeReason::RcxLiveAfterSite) => self.first_rcx_reader_after(id),
            Verdict::Unknown(
                UnknownReason::NumberNotConstant | UnknownReason::MultipleDefinitions,
            ) => walk_blocker.or(region.map(|r| r.0)),
            Verdict::Unknown(UnknownReason::NumberOutOfRange { .. }) => region.map(|r| r.0),
            Verdict::Unknown(
                UnknownReason::OverlappingDecode { at } | UnknownReason::UndecodedBytes { at },
            ) => Some(at),
        };
        ReasonChain { blocker, definer }
    }

    /// First instruction shortly after the site that reads `%rcx`
    /// (diagnostic pointer for [`UnsafeReason::RcxLiveAfterSite`]; the
    /// real liveness fact is CFG-wide, this names the adjacent witness
    /// when there is one).
    fn first_rcx_reader_after(&self, id: usize) -> Option<u64> {
        self.disasm.insts[id + 1..]
            .iter()
            .take(16)
            .find(|(_, d)| {
                matches!(
                    d.inst,
                    Inst::MovRegReg64 { src: Reg::Rcx, .. }
                        | Inst::StoreRspDisp8R64 { reg: Reg::Rcx, .. }
                )
            })
            .map(|&(a, _)| a)
    }

    /// The region a straight-line patcher would detour: walks backwards
    /// from the `syscall` with id `id` over rax-preserving instructions
    /// to the defining immediate load, `Ok((mov_addr, mov_len, number))`.
    /// Rax writes, calls, unconditional control flow and `int3` end the
    /// walk without one (conditional branches do not), `Err(Some(at))`
    /// naming that instruction. The walk also stops at a gap or the image
    /// start, `Err(None)`: the region must be one contiguous decode.
    fn syntactic_region(&self, id: usize) -> Result<(u64, u8, i64), Option<u64>> {
        let mut cur = id;
        loop {
            cur = self.disasm.prev_adjacent(cur).ok_or(None)?;
            let (prev, d) = self.disasm.insts[cur];
            match d.inst {
                Inst::MovImm32 { reg: Reg::Rax, imm } => return Ok((prev, 5, i64::from(imm))),
                Inst::MovImm32SxR64 { reg: Reg::Rax, imm } if imm >= 0 => {
                    return Ok((prev, 7, i64::from(imm)))
                }
                Inst::XorEaxEax => return Ok((prev, 2, 0)),
                Inst::MovImm32SxR64 { reg: Reg::Rax, .. }
                | Inst::LoadRspDisp8R32 { reg: Reg::Rax, .. }
                | Inst::LoadRspDisp8R64 { reg: Reg::Rax, .. }
                | Inst::MovRegReg64 { dst: Reg::Rax, .. }
                | Inst::Syscall
                | Inst::CallRel32 { .. }
                | Inst::CallAbsIndirect { .. }
                | Inst::Ret
                | Inst::JmpRel8 { .. }
                | Inst::JmpRel32 { .. }
                | Inst::Int3 => return Err(Some(prev)),
                _ => {}
            }
        }
    }

    /// The instruction directly before the `syscall` with id `id`, when
    /// it is a `mov %rax, disp8(%rsp)`-style stack load (the Go wrapper
    /// shape).
    fn adjacent_stack_load(&self, id: usize) -> Option<(u64, u8)> {
        let (at, d) = self.disasm.insts[self.disasm.prev_adjacent(id)?];
        let is_load = matches!(
            d.inst,
            Inst::LoadRspDisp8R64 { reg: Reg::Rax, .. }
                | Inst::LoadRspDisp8R32 { reg: Reg::Rax, .. }
        );
        is_load.then_some((at, d.len as u8))
    }

    /// Why a detour over `[region_start, syscall_addr + 2)` whose
    /// displaced interior is `[mov_end, syscall_addr)` would change an
    /// execution, if it would.
    ///
    /// The detour overwrites the region with a `jmp rel32` + `int3` fill
    /// and re-materializes the interior in a trampoline at the same
    /// offset from the trampoline's start that it had from `mov_end`, so:
    ///
    /// * control entering the interior from **outside** the region lands
    ///   on `int3` fill — [`UnsafeReason::InteriorJumpTarget`];
    /// * an **interior** branch stays correct only if its destination is
    ///   within `[mov_end, syscall_addr]` (the `syscall_addr` endpoint
    ///   maps onto the trampoline's vsyscall call, which is exactly the
    ///   replacement semantics) — anything else is
    ///   [`UnsafeReason::InteriorBranchEscapes`].
    fn detour_hazard(
        &self,
        region_start: u64,
        mov_end: u64,
        syscall_addr: u64,
    ) -> Option<UnsafeReason> {
        let region_end = syscall_addr + 2;
        // Outside → interior edges. The region start itself is fine: the
        // detour jump lives there.
        for e in self.cfg.edges_into(region_start + 1, region_end) {
            if !(region_start..region_end).contains(&e.src) {
                return Some(UnsafeReason::InteriorJumpTarget { target: e.target });
            }
        }
        // An external entry point inside the region interior.
        let entries = &self.disasm.entries;
        let first = entries.partition_point(|&e| e <= region_start);
        if let Some(&entry) = entries.get(first).filter(|&&e| e < region_end) {
            return Some(UnsafeReason::InteriorJumpTarget { target: entry });
        }
        // Interior branches that escape the relocatable window.
        let interior = self.disasm.ids_in(mov_end..syscall_addr);
        for &(at, d) in &self.disasm.insts[interior] {
            if let Some(t) = d.inst.branch_target(at) {
                if !(mov_end..=syscall_addr).contains(&t) {
                    return Some(UnsafeReason::InteriorBranchEscapes { src: at });
                }
            }
        }
        None
    }

    fn judge_region(
        &self,
        facts: &SyscallFacts,
        kind: SiteKind,
        number: Option<i64>,
        region: Option<(u64, u64)>,
    ) -> Verdict {
        let rax = facts.rax;
        let Some((region_start, mov_end)) = region else {
            return Verdict::Unknown(match rax {
                RaxValue::MultipleDefs => UnknownReason::MultipleDefinitions,
                _ => UnknownReason::NumberNotConstant,
            });
        };
        let syscall_addr = self.disasm.addr(facts.inst);
        let region_end = syscall_addr + 2;

        // Structural soundness of the region bytes first: if the region is
        // not a single contiguous decode, nothing below is trustworthy.
        if let Err(at) = self.disasm.contiguous_code(region_start, region_end) {
            return Verdict::Unknown(UnknownReason::UndecodedBytes { at });
        }
        if let Some(at) = self
            .disasm
            .first_overlapping_target(region_start..region_end)
        {
            return Verdict::Unknown(UnknownReason::OverlappingDecode { at });
        }

        // Proven-unsafe conditions.
        if let Some(reason) = self.detour_hazard(region_start, mov_end, syscall_addr) {
            return Verdict::Unsafe(reason);
        }
        if facts.rcx_live_out {
            return Verdict::Unsafe(UnsafeReason::RcxLiveAfterSite);
        }

        // Number validity. The syntactic region names a defining mov; the
        // flow-sensitive dataflow must agree that this mov's constant is
        // the *only* value reaching the site on every path.
        if kind == SiteKind::ImmediateNumber {
            match rax {
                RaxValue::Const { mov_addr, .. } if mov_addr == region_start => {}
                RaxValue::Const { .. } | RaxValue::MultipleDefs => {
                    return Verdict::Unknown(UnknownReason::MultipleDefinitions)
                }
                _ => return Verdict::Unknown(UnknownReason::NumberNotConstant),
            }
            // Stack-dispatch entries validate the number at run time, so
            // only immediate numbers get the static range check.
            let nr = number.expect("immediate sites carry a number");
            if !in_syscall_range(nr) {
                return Verdict::Unknown(UnknownReason::NumberOutOfRange { nr });
            }
        }

        Verdict::Safe
    }
}

/// Whether executing `inst` observes the current value of `%rax`.
/// Used to veto upgraded regions whose interior would be displaced into
/// a trampoline that no longer contains the defining instruction.
fn reads_rax(inst: Inst) -> bool {
    matches!(
        inst,
        Inst::MovRegReg64 { src: Reg::Rax, .. }
            | Inst::StoreRspDisp8R64 { reg: Reg::Rax, .. }
            | Inst::TestEaxEax
            | Inst::Syscall
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use xc_isa::asm::Assembler;
    use xc_isa::inst::Cond;

    fn analyze(a: Assembler) -> Analysis {
        Verifier::new().analyze(&a.finish().unwrap())
    }

    #[test]
    fn glibc_wrapper_is_safe() {
        let mut a = Assembler::new(0x1000);
        a.label("__read").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 0,
        });
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let an = analyze(a);
        assert_eq!(an.verdict_at(0x1005), Some(Verdict::Safe));
        let site = an.report().site(0x1005).unwrap();
        assert_eq!(site.kind, SiteKind::ImmediateNumber);
        assert_eq!(site.number, Some(0));
    }

    #[test]
    fn go_stack_wrapper_is_safe_without_range_check() {
        let mut a = Assembler::new(0x1000);
        a.label("syscall_Syscall").unwrap();
        a.inst(Inst::LoadRspDisp8R64 {
            reg: Reg::Rax,
            disp: 8,
        });
        a.inst(Inst::Syscall); // 0x1005
        a.inst(Inst::Ret);
        let an = analyze(a);
        assert_eq!(an.verdict_at(0x1005), Some(Verdict::Safe));
        assert_eq!(
            an.report().site(0x1005).unwrap().kind,
            SiteKind::StackNumber
        );
    }

    #[test]
    fn out_of_range_number_is_unknown() {
        let mut a = Assembler::new(0x1000);
        a.label("w").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 9999,
        });
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let an = analyze(a);
        assert_eq!(
            an.verdict_at(0x1005),
            Some(Verdict::Unknown(UnknownReason::NumberOutOfRange {
                nr: 9999
            }))
        );
    }

    #[test]
    fn cancellable_wrapper_interior_branch_is_safe() {
        // je targets the syscall itself — intra-region, relocates exactly.
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
        let an = Verifier::new().analyze(&image);
        assert_eq!(an.verdict_at(syscall_at), Some(Verdict::Safe));
    }

    #[test]
    fn outside_jump_into_interior_is_unsafe() {
        let mut a = Assembler::new(0x1000);
        a.label("w").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 1,
        });
        a.label("interior").unwrap();
        a.inst(Inst::Nop);
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        a.label("other").unwrap();
        a.jmp_to("interior");
        let image = a.finish().unwrap();
        let interior = image.symbol("interior").unwrap();
        let an = Verifier::new().analyze(&image);
        assert_eq!(
            an.verdict_at(0x1006),
            Some(Verdict::Unsafe(UnsafeReason::InteriorJumpTarget {
                target: interior
            }))
        );
    }

    #[test]
    fn escaping_interior_branch_is_unsafe() {
        // A branch inside the region that leaves it (loops back to the mov).
        let mut a = Assembler::new(0x1000);
        a.label("w").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 1,
        }); // 0x1000
        a.inst(Inst::TestEaxEax); // 0x1005
        a.jcc_to(Cond::Ne, "w"); // 0x1007, escapes to region start
        a.inst(Inst::Syscall); // 0x1009
        a.inst(Inst::Ret);
        let an = analyze(a);
        assert_eq!(
            an.verdict_at(0x1009),
            Some(Verdict::Unsafe(UnsafeReason::InteriorBranchEscapes {
                src: 0x1007
            }))
        );
    }

    #[test]
    fn rcx_use_after_syscall_is_unsafe() {
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
        let an = analyze(a);
        assert_eq!(
            an.verdict_at(0x1005),
            Some(Verdict::Unsafe(UnsafeReason::RcxLiveAfterSite))
        );
    }

    #[test]
    fn register_copied_number_is_unknown() {
        let mut a = Assembler::new(0x1000);
        a.label("w").unwrap();
        a.inst(Inst::MovRegReg64 {
            dst: Reg::Rax,
            src: Reg::Rdi,
        });
        a.inst(Inst::Syscall); // 0x1003
        a.inst(Inst::Ret);
        let an = analyze(a);
        assert_eq!(
            an.verdict_at(0x1003),
            Some(Verdict::Unknown(UnknownReason::NumberNotConstant))
        );
    }

    #[test]
    fn report_tally_counts_by_verdict() {
        let mut a = Assembler::new(0x1000);
        a.label("safe").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 1,
        });
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        a.label("unknown").unwrap();
        a.inst(Inst::MovRegReg64 {
            dst: Reg::Rax,
            src: Reg::Rdi,
        });
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let an = analyze(a);
        assert_eq!(an.report().tally(), (1, 0, 1));
        assert!(an.report().to_string().contains("2 sites"));
    }

    /// `mov $nr, %edi; call shim` with an identity shim: v1 reports the
    /// shim's syscall `Unknown`, the interprocedural pass proves it.
    fn shim_library() -> Assembler {
        let mut a = Assembler::new(0x1000);
        a.label("wrapper").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rdi,
            imm: 39,
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
        a
    }

    #[test]
    fn libc_shim_syscall_upgrades_to_propagated_safe() {
        let image = shim_library().finish().unwrap();
        let shim = image.symbol("shim").unwrap();
        let syscall_at = shim + 3;
        let an = Verifier::new().analyze(&image);
        assert_eq!(an.verdict_at(syscall_at), Some(Verdict::Safe));
        let site = an.report().site(syscall_at).unwrap();
        assert_eq!(site.kind, SiteKind::PropagatedNumber);
        assert_eq!(site.number, Some(39));
        assert_eq!(site.mov_addr, Some(shim));
        assert_eq!(site.mov_len, Some(3));
    }

    #[test]
    fn upgrades_can_be_disabled_and_v1_verdict_returns() {
        let image = shim_library().finish().unwrap();
        let shim = image.symbol("shim").unwrap();
        let an = Verifier::with_config(VerifierConfig {
            interprocedural_upgrades: false,
        })
        .analyze(&image);
        let site = an.report().site(shim + 3).unwrap();
        assert_eq!(
            site.verdict,
            Verdict::Unknown(UnknownReason::NumberNotConstant)
        );
        // The reason chain still names the blocking copy and the
        // abstract definer even without the upgrade.
        assert_eq!(site.chain.blocker, Some(shim));
        assert_eq!(site.chain.definer, Some(shim));
    }

    #[test]
    fn shim_with_two_disagreeing_callers_stays_unknown() {
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
        let image = a.finish().unwrap();
        let shim = image.symbol("shim").unwrap();
        let an = Verifier::new().analyze(&image);
        assert_eq!(
            an.verdict_at(shim + 3),
            Some(Verdict::Unknown(UnknownReason::NumberNotConstant))
        );
    }

    #[test]
    fn out_of_range_propagated_number_stays_unknown() {
        let mut a = Assembler::new(0x1000);
        a.label("wrapper").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rdi,
            imm: 9999,
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
        let image = a.finish().unwrap();
        let shim = image.symbol("shim").unwrap();
        let an = Verifier::new().analyze(&image);
        assert_eq!(
            an.verdict_at(shim + 3),
            Some(Verdict::Unknown(UnknownReason::NumberNotConstant))
        );
    }

    #[test]
    fn unknown_chain_points_at_the_blocking_call() {
        // rax set before a call, syscall after: the call both blocks the
        // syntactic walk and clobbers the abstract value.
        let mut a = Assembler::new(0x1000);
        a.label("f").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 1,
        });
        let call_at = a.here();
        a.call_to("noisy");
        let syscall_at = a.here();
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        a.label("noisy").unwrap();
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let an = analyze(a);
        let site = an.report().site(syscall_at).unwrap();
        assert!(matches!(site.verdict, Verdict::Unknown(_)));
        assert_eq!(site.chain.blocker, Some(call_at));
    }

    #[test]
    fn propagated_region_shorter_than_a_detour_stays_unknown() {
        // The copy lands rax right before the syscall but the region is
        // 3 + 2 = 5 bytes — exactly enough. Shrink it: an xor-defined
        // rdi copied via a 3-byte mov still works, so instead test a
        // direct 2-byte def (xor) with an adjacent syscall in a called
        // shim — region 2 + 2 = 4 bytes, too small.
        let mut a = Assembler::new(0x1000);
        a.label("wrapper").unwrap();
        a.call_to("shim");
        a.inst(Inst::Ret);
        a.label("shim").unwrap();
        a.inst(Inst::XorEaxEax);
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let image = a.finish().unwrap();
        let shim = image.symbol("shim").unwrap();
        let an = Verifier::new().analyze(&image);
        // xor is a *syntactic* immediate def, so this is judged by the
        // v1 path as an immediate site, not an upgrade candidate.
        let site = an.report().site(shim + 2).unwrap();
        assert_eq!(site.kind, SiteKind::ImmediateNumber);
    }
}
