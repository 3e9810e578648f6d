//! The verifier: per-site verdicts and detour-region hazard queries.

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

/// Why a detour cannot safely overwrite a region (the offline patcher's
/// pre-flight query; see [`Analysis::region_detour_hazard`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetourHazard {
    /// Control enters the region interior from outside it.
    InteriorJumpTarget {
        /// The interior address entered from outside.
        target: u64,
    },
    /// An interior branch targets an address the trampoline relocation
    /// cannot preserve.
    EscapingInteriorBranch {
        /// Address of the escaping branch.
        src: u64,
    },
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

    /// Pre-flight check for an offline detour over
    /// `[region_start, syscall_addr + 2)` whose displaced interior is
    /// `[mov_end, syscall_addr)`.
    ///
    /// The detour overwrites the region with a `jmp rel32` + `int3` fill
    /// and re-materializes the interior in a trampoline at the same
    /// offset from the trampoline's start that it had from `mov_end`, so:
    ///
    /// * control entering the interior from **outside** the region lands
    ///   on `int3` fill — [`DetourHazard::InteriorJumpTarget`];
    /// * an **interior** branch stays correct only if its destination is
    ///   within `[mov_end, syscall_addr]` (the `syscall_addr` endpoint
    ///   maps onto the trampoline's vsyscall call, which is exactly the
    ///   replacement semantics) — anything else is
    ///   [`DetourHazard::EscapingInteriorBranch`].
    pub fn region_detour_hazard(
        &self,
        region_start: u64,
        mov_end: u64,
        syscall_addr: u64,
    ) -> Option<DetourHazard> {
        let region_end = syscall_addr + 2;
        // Outside → interior edges. The region start itself is fine: the
        // detour jump lives there.
        for e in self.cfg.edges_into(region_start + 1, region_end) {
            if !(region_start..region_end).contains(&e.src) {
                return Some(DetourHazard::InteriorJumpTarget { target: e.target });
            }
        }
        self.region_hazard_tail(region_start, mov_end, syscall_addr)
    }

    /// Batched form of [`Analysis::region_detour_hazard`]: answers every
    /// `(region_start, mov_end, syscall_addr)` query with **one** pass
    /// over the CFG edge list instead of one full-list walk per region.
    /// The remaining per-region checks (entry points, interior branches)
    /// binary-search the sorted entry and instruction lists and scan the
    /// region only, so they stay per-region. Results are index-aligned with `queries` and identical
    /// to calling the single-region form on each query.
    pub fn region_detour_hazards(&self, queries: &[(u64, u64, u64)]) -> Vec<Option<DetourHazard>> {
        let mut out: Vec<Option<DetourHazard>> = vec![None; queries.len()];
        // Outside → interior edges, every region in one edge-list walk.
        // The first matching edge in list order wins for each region,
        // exactly as `edges_into` iteration would find it.
        for e in &self.cfg.edges {
            for (slot, &(region_start, _, syscall_addr)) in out.iter_mut().zip(queries) {
                let region_end = syscall_addr + 2;
                if slot.is_none()
                    && (region_start + 1..region_end).contains(&e.target)
                    && !(region_start..region_end).contains(&e.src)
                {
                    *slot = Some(DetourHazard::InteriorJumpTarget { target: e.target });
                }
            }
        }
        for (slot, &(region_start, mov_end, syscall_addr)) in out.iter_mut().zip(queries) {
            if slot.is_none() {
                *slot = self.region_hazard_tail(region_start, mov_end, syscall_addr);
            }
        }
        out
    }

    /// The per-region half of the hazard check (everything after the
    /// edge-list walk), shared by the single and batched forms.
    fn region_hazard_tail(
        &self,
        region_start: u64,
        mov_end: u64,
        syscall_addr: u64,
    ) -> Option<DetourHazard> {
        let region_end = syscall_addr + 2;
        // An external entry point inside the region interior.
        let entries = &self.disasm.entries;
        let first = entries.partition_point(|&e| e <= region_start);
        if let Some(&entry) = entries.get(first).filter(|&&e| e < region_end) {
            return Some(DetourHazard::InteriorJumpTarget { target: entry });
        }
        // Interior branches that escape the relocatable window.
        let interior = self.disasm.ids_in(mov_end..syscall_addr);
        for &(at, d) in &self.disasm.insts[interior] {
            if let Some(t) = d.inst.branch_target(at) {
                if !(mov_end..=syscall_addr).contains(&t) {
                    return Some(DetourHazard::EscapingInteriorBranch { src: at });
                }
            }
        }
        None
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

        // Pick the candidate patch region the way the *linear* offline
        // scanner would (straight-line, flow-insensitive), then let the
        // CFG and dataflow refine or veto it. This ordering matters: the
        // verifier's job is to judge the region a naive patcher would
        // pick, including regions the dataflow already knows are entered
        // from elsewhere.
        let (kind, number, mov_addr, mov_len, region) =
            if let Some((mov, len, nr)) = self.syntactic_region(id) {
                (
                    SiteKind::ImmediateNumber,
                    Some(nr),
                    Some(mov),
                    Some(len as u8),
                    Some((mov, mov + len)),
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

        let chain = self.chain_for(id, verdict, region);
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
    /// the syscall, and the region `[def, syscall+2)` must pass every
    /// structural check the v1 immediate path applies — plus one more:
    /// the defining instruction is *dropped* from the detour trampoline
    /// (the vsyscall entry supplies the number), so nothing in the
    /// displaced interior may read `%rax`.
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
        if !in_syscall_range(v) {
            return None;
        }
        if def_addr >= syscall_addr {
            return None;
        }
        let region_end = syscall_addr + 2;
        if region_end - def_addr < 5 {
            return None; // detour needs room for a jmp rel32
        }
        self.disasm.contiguous_code(def_addr, region_end).ok()?;
        if self
            .disasm
            .first_overlapping_target(def_addr..region_end)
            .is_some()
        {
            return None;
        }
        let mov_end = def_addr + u64::from(def_len);
        let interior = self.disasm.ids_in(mov_end..syscall_addr);
        if self.disasm.insts[interior]
            .iter()
            .any(|&(_, d)| reads_rax(d.inst))
        {
            return None;
        }
        if self
            .region_detour_hazard(def_addr, mov_end, syscall_addr)
            .is_some()
        {
            return None;
        }
        if facts.rcx_live_out {
            return None;
        }
        Some((v, def_addr, def_len))
    }

    /// Builds the causal chain for a non-`Safe` verdict: which
    /// instruction blocked the proof and where the abstract interpreter
    /// last saw the value defined.
    fn chain_for(&self, id: usize, verdict: Verdict, region: Option<(u64, u64)>) -> ReasonChain {
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
            ) => self.syntactic_blocker(id).or(region.map(|r| r.0)),
            Verdict::Unknown(UnknownReason::NumberOutOfRange { .. }) => region.map(|r| r.0),
            Verdict::Unknown(
                UnknownReason::OverlappingDecode { at } | UnknownReason::UndecodedBytes { at },
            ) => Some(at),
        };
        ReasonChain { blocker, definer }
    }

    /// The instruction that stopped the syntactic backward walk from the
    /// `syscall` with id `id` (the first rax-clobbering or flow-breaking
    /// instruction behind the site), when the walk failed to find a
    /// defining immediate.
    fn syntactic_blocker(&self, id: usize) -> Option<u64> {
        let mut cur = id;
        loop {
            cur = self.disasm.prev_adjacent(cur)?;
            let (prev, d) = self.disasm.insts[cur];
            match d.inst {
                Inst::MovImm32 { reg: Reg::Rax, .. } | Inst::XorEaxEax => return None,
                Inst::MovImm32SxR64 { reg: Reg::Rax, imm } if imm >= 0 => return None,
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
                | Inst::Int3 => return Some(prev),
                _ => {}
            }
        }
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

    /// The region a straight-line scan would patch: walks backwards from
    /// the syscall over rax-preserving instructions to the defining
    /// immediate load. Mirrors the kill set of `xc-abom`'s offline
    /// scanner (rax writes, calls, unconditional control flow and `int3`
    /// end the walk; conditional branches do not). The walk stops at a
    /// gap: the region must be one contiguous decode.
    fn syntactic_region(&self, id: usize) -> Option<(u64, u64, i64)> {
        let mut cur = id;
        loop {
            cur = self.disasm.prev_adjacent(cur)?;
            let (prev, d) = self.disasm.insts[cur];
            match d.inst {
                Inst::MovImm32 { reg: Reg::Rax, imm } => return Some((prev, 5, i64::from(imm))),
                Inst::MovImm32SxR64 { reg: Reg::Rax, imm } if imm >= 0 => {
                    return Some((prev, 7, i64::from(imm)))
                }
                Inst::XorEaxEax => return Some((prev, 2, 0)),
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
                | Inst::Int3 => return None,
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
        if let Some(h) = self.region_detour_hazard(region_start, mov_end, syscall_addr) {
            return Verdict::Unsafe(match h {
                DetourHazard::InteriorJumpTarget { target } => {
                    UnsafeReason::InteriorJumpTarget { target }
                }
                DetourHazard::EscapingInteriorBranch { src } => {
                    UnsafeReason::InteriorBranchEscapes { src }
                }
            });
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
