//! The offline binary patching tool.
//!
//! "For more complicated cases, it is possible to inject code into the
//! binary and re-direct a bigger chunk of code. We also provide a tool to
//! do this offline." (§4.4). The canonical customer is libpthread's
//! cancellable syscall wrappers, where the cancel-state check sits between
//! the `mov $nr,%eax` and the `syscall` — patching two such locations lifts
//! MySQL from 44.6% to 92.2% syscall reduction (Table 1).
//!
//! The tool performs classic **detour patching**:
//!
//! 1. linear-sweep disassemble the text section ([`xc_verify::disasm::sweep`]),
//! 2. dataflow-track the syscall number: the most recent immediate `mov`
//!    into `%rax` that provably survives to each `syscall`,
//! 3. adjacent `mov`+`syscall` pairs are handed to the online patcher
//!    logic (same 7/9-byte replacements),
//! 4. non-adjacent pairs are detoured: the region from the `mov` through
//!    the `syscall` is replaced by a `jmp rel32` to a trampoline appended
//!    to the image, which re-executes the displaced instructions with the
//!    `mov`+`syscall` collapsed into a vsyscall-table call, then jumps
//!    back.
//!
//! Historically, detour patchers *assume* no external jump targets the
//! interior of a detoured region. This tool **proves** it instead: before
//! any detour is written, the `xc-verify` static analyzer (CFG +
//! dataflow over the same image) checks each candidate region, and
//! regions with a proven interior jump target are refused with
//! [`SkipReason::InteriorJumpTarget`]. Interior bytes of regions that do
//! get detoured are still filled with `int3` so even an unproven
//! violation fails loudly rather than silently.

use std::error::Error;
use std::fmt;

use xc_isa::decode::DecodeError;
use xc_isa::image::{BinaryImage, PAGE_SIZE};
use xc_isa::inst::{Inst, Reg};
use xc_verify::disasm::sweep;
use xc_verify::{AnalysisCache, DetourHazard, SiteKind, Verdict, Verifier};

use crate::patcher::{Abom, PatchOutcome};
use crate::patterns::recognize;
use crate::stats::AbomStats;
use crate::table::VsyscallTable;

/// Why a syscall site was left unpatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// No immediate `mov` into `%rax` reaches this syscall.
    UnknownNumber,
    /// The tracked number is outside the vsyscall table.
    NumberOutOfRange,
    /// The detour region is too small to hold the redirect jump.
    RegionTooSmall,
    /// The static analyzer proved that control enters the detour region's
    /// interior from outside it; a detour would break that entrance.
    InteriorJumpTarget,
    /// The static analyzer proved that an instruction inside the region
    /// branches somewhere the trampoline relocation cannot preserve.
    InteriorBranchEscape,
}

impl fmt::Display for SkipReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkipReason::UnknownNumber => write!(f, "syscall number not statically known"),
            SkipReason::NumberOutOfRange => write!(f, "syscall number outside entry table"),
            SkipReason::RegionTooSmall => write!(f, "region too small for detour"),
            SkipReason::InteriorJumpTarget => {
                write!(f, "region interior is a jump target from outside")
            }
            SkipReason::InteriorBranchEscape => {
                write!(f, "region interior branch escapes the relocatable window")
            }
        }
    }
}

/// Offline patching failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OfflineError {
    /// The image rewrite failed (internal invariant violation).
    Rewrite(String),
}

impl fmt::Display for OfflineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OfflineError::Rewrite(msg) => write!(f, "offline rewrite failed: {msg}"),
        }
    }
}

impl Error for OfflineError {}

/// Outcome of an offline patching run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OfflineReport {
    /// Sites patched via the adjacent (online-style) replacements.
    pub adjacent_patched: u64,
    /// Sites patched via detour trampolines.
    pub detour_patched: u64,
    /// Sites skipped, with reasons.
    pub skipped: Vec<(u64, SkipReason)>,
    /// Counters from the run's ABOM instance: the adjacent-replacement
    /// pass plus [`AbomStats::hazard_scans_saved`], the edge-list walks
    /// amortized away by batching the per-region hazard queries.
    pub abom: AbomStats,
    /// Sites the linear scan gave up on ([`SkipReason::UnknownNumber`])
    /// that the interprocedural verifier recovered into detour
    /// candidates (only nonzero with [`OfflineConfig::interprocedural`]).
    pub interprocedural_recovered: u64,
}

impl OfflineReport {
    /// Total sites rewritten.
    pub fn total_patched(&self) -> u64 {
        self.adjacent_patched + self.detour_patched
    }

    /// Sites refused because the verifier proved the region interior is
    /// entered from outside (either hazard kind).
    pub fn interior_jump_skips(&self) -> u64 {
        self.skipped
            .iter()
            .filter(|(_, r)| {
                matches!(
                    r,
                    SkipReason::InteriorJumpTarget | SkipReason::InteriorBranchEscape
                )
            })
            .count() as u64
    }
}

/// Configuration for the offline tool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OfflineConfig {
    /// Allow the number-tracking dataflow to survive conditional branches
    /// (required for libpthread cancellable wrappers, where the cancel
    /// check branches but both paths reach the syscall with `%rax`
    /// intact). The paper's tool is applied manually to known-safe sites;
    /// this flag is that human judgement.
    pub across_conditional_branches: bool,
    /// Consult the interprocedural verifier for sites the linear scan
    /// cannot resolve: a [`SkipReason::UnknownNumber`] site whose
    /// verdict is `Safe` with kind `PropagatedNumber` (constant proven
    /// through copies, spills, or call edges) becomes a detour
    /// candidate, with the region anchored at the propagating
    /// instruction the verifier names. Off by default: the default tool
    /// mirrors the paper's single-pass scan, so existing Table-1
    /// numbers are unchanged unless a caller opts in.
    pub interprocedural: bool,
}

impl Default for OfflineConfig {
    fn default() -> Self {
        OfflineConfig {
            across_conditional_branches: true,
            interprocedural: false,
        }
    }
}

/// One discovered syscall site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Site {
    mov_addr: u64,
    mov_len: usize,
    syscall_addr: u64,
    nr: u64,
    adjacent: bool,
}

/// The offline patching tool.
///
/// # Example
///
/// ```
/// use xc_abom::binaries::pthread_cancellable_wrapper_image;
/// use xc_abom::offline::OfflinePatcher;
///
/// // Online ABOM cannot patch a cancellable wrapper; the offline tool can.
/// let image = pthread_cancellable_wrapper_image(202);
/// let (patched, report) = OfflinePatcher::new().patch(&image).unwrap();
/// assert_eq!(report.detour_patched, 1);
/// assert!(patched.len() > image.len()); // trampoline appended
/// ```
#[derive(Debug, Clone, Default)]
pub struct OfflinePatcher {
    table: VsyscallTable,
    config: OfflineConfig,
}

impl OfflinePatcher {
    /// Creates the tool with default configuration.
    pub fn new() -> Self {
        OfflinePatcher::default()
    }

    /// Creates the tool with explicit configuration.
    pub fn with_config(config: OfflineConfig) -> Self {
        OfflinePatcher {
            table: VsyscallTable::new(),
            config,
        }
    }

    /// Scans and patches `image`, returning a rewritten image (original
    /// bytes plus appended trampolines) and a report.
    ///
    /// # Errors
    ///
    /// Returns [`OfflineError`] if an internal rewrite fails — scan misses
    /// are reported in [`OfflineReport::skipped`], not as errors.
    pub fn patch(&self, image: &BinaryImage) -> Result<(BinaryImage, OfflineReport), OfflineError> {
        let mut cache = AnalysisCache::new();
        self.patch_with_cache(image, &mut cache)
    }

    /// Like [`OfflinePatcher::patch`], but serving the pre-flight static
    /// analysis through a caller-owned [`AnalysisCache`]. Callers that
    /// already analyzed `image` (study harnesses, batch pipelines) share
    /// the cache so the image's text section is decoded once, not once per
    /// consumer.
    ///
    /// # Errors
    ///
    /// Returns [`OfflineError`] if an internal rewrite fails — scan misses
    /// are reported in [`OfflineReport::skipped`], not as errors.
    pub fn patch_with_cache(
        &self,
        image: &BinaryImage,
        cache: &mut AnalysisCache,
    ) -> Result<(BinaryImage, OfflineReport), OfflineError> {
        let (mut sites, mut skipped) = self.scan(image);
        // One static analysis of the unpatched image backs every detour
        // decision below (memoized: a hit if the caller analyzed it first).
        let analysis = cache.analyze(&Verifier::new(), image);

        // Interprocedural recovery: sites the linear scan could not
        // resolve but the abstract interpreter proved constant get a
        // region anchored at the propagating instruction. The hazard
        // checks below still apply to every recovered region.
        let mut recovered = 0u64;
        if self.config.interprocedural {
            skipped.retain(|&(addr, reason)| {
                if reason != SkipReason::UnknownNumber {
                    return true;
                }
                let Some(site) = analysis.site_at(addr) else {
                    return true;
                };
                let propagated =
                    site.verdict == Verdict::Safe && site.kind == SiteKind::PropagatedNumber;
                let (Some(mov_addr), Some(mov_len), Some(nr), true) =
                    (site.mov_addr, site.mov_len, site.number, propagated)
                else {
                    return true;
                };
                sites.push(Site {
                    mov_addr,
                    mov_len: mov_len as usize,
                    syscall_addr: addr,
                    nr: nr as u64,
                    adjacent: false,
                });
                recovered += 1;
                false
            });
            sites.sort_by_key(|s| s.syscall_addr);
        }

        // Build the output: original bytes + page-aligned trampoline area.
        let text_len = image.len();
        let tramp_start_off = (text_len as u64).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let mut bytes = image
            .read_bytes(image.base(), text_len)
            .map_err(|e| OfflineError::Rewrite(e.to_string()))?
            .to_vec();
        bytes.resize(tramp_start_off as usize, 0xcc);

        let mut report = OfflineReport {
            skipped,
            interprocedural_recovered: recovered,
            ..OfflineReport::default()
        };
        let mut detours: Vec<(Site, u64)> = Vec::new();
        let mut tramp_cursor = image.base() + tramp_start_off;
        let mut abom = Abom::new();

        // Cheap shape checks first, so the hazard queries for every
        // surviving candidate region can be answered by one batched
        // edge-list walk instead of one full walk per site.
        let mut prechecked: Vec<(&Site, Result<u64, SkipReason>)> = Vec::new();
        for site in &sites {
            if site.adjacent {
                continue; // handled by the online-style pass below
            }
            let region_len = (site.syscall_addr + 2 - site.mov_addr) as usize;
            let verdict = if region_len < 5 {
                Err(SkipReason::RegionTooSmall)
            } else if let Some(entry) = self.table.entry_for_number(site.nr) {
                Ok(entry)
            } else {
                Err(SkipReason::NumberOutOfRange)
            };
            prechecked.push((site, verdict));
        }
        // Pre-flight safety proof for every candidate at once: refuse
        // regions whose interior is reachable from outside the region.
        let queries: Vec<(u64, u64, u64)> = prechecked
            .iter()
            .filter(|(_, v)| v.is_ok())
            .map(|(s, _)| (s.mov_addr, s.mov_addr + s.mov_len as u64, s.syscall_addr))
            .collect();
        abom.stats_mut().hazard_scans_saved += (queries.len() as u64).saturating_sub(1);
        let mut hazards = analysis.region_detour_hazards(&queries).into_iter();

        for (site, verdict) in prechecked {
            let region_start = site.mov_addr;
            let region_end = site.syscall_addr + 2;
            let entry = match verdict {
                Ok(entry) => entry,
                Err(reason) => {
                    report.skipped.push((site.syscall_addr, reason));
                    continue;
                }
            };
            if let Some(hazard) = hazards.next().expect("one hazard result per candidate") {
                let reason = match hazard {
                    DetourHazard::InteriorJumpTarget { .. } => SkipReason::InteriorJumpTarget,
                    DetourHazard::EscapingInteriorBranch { .. } => SkipReason::InteriorBranchEscape,
                };
                report.skipped.push((site.syscall_addr, reason));
                continue;
            }

            // Trampoline: displaced interior (minus mov and syscall), then
            // the vsyscall call, then a jump back to the region end.
            let interior_start = (region_start - image.base()) as usize + site.mov_len;
            let interior_end = (site.syscall_addr - image.base()) as usize;
            let mut tramp = Vec::new();
            tramp.extend_from_slice(&bytes[interior_start..interior_end]);
            Inst::CallAbsIndirect { target: entry }.encode_into(&mut tramp);
            // jmp rel32 back to region_end.
            let jmp_at = tramp_cursor + tramp.len() as u64;
            let rel = region_end as i64 - (jmp_at + 5) as i64;
            Inst::JmpRel32 { rel: rel as i32 }.encode_into(&mut tramp);

            detours.push((*site, tramp_cursor));
            let off = (tramp_cursor - image.base()) as usize;
            if bytes.len() < off + tramp.len() {
                bytes.resize(off + tramp.len(), 0xcc);
            }
            bytes[off..off + tramp.len()].copy_from_slice(&tramp);
            // Pack trampolines back-to-back: each is only entered via its
            // detour jump and left via its closing jump, so alignment
            // padding between them bought nothing (ROADMAP item 5).
            tramp_cursor += tramp.len() as u64;
        }

        // Write the detour jumps into the text copy.
        for (site, tramp_addr) in &detours {
            let region_start = site.mov_addr;
            let region_end = site.syscall_addr + 2;
            let off = (region_start - image.base()) as usize;
            let rel = *tramp_addr as i64 - (region_start + 5) as i64;
            let mut jmp = Vec::new();
            Inst::JmpRel32 { rel: rel as i32 }.encode_into(&mut jmp);
            bytes[off..off + 5].copy_from_slice(&jmp);
            // int3-fill the rest of the region so stray jumps fail loudly.
            for b in &mut bytes[off + 5..(region_end - image.base()) as usize] {
                *b = 0xcc;
            }
            report.detour_patched += 1;
        }

        let mut out = BinaryImage::new(image.base(), bytes);
        for (name, addr) in image.symbols() {
            out.add_symbol(name, addr);
        }

        // Adjacent sites: run the online replacement logic on the copy.
        for site in &sites {
            if site.adjacent {
                match abom.on_syscall_trap(&mut out, site.syscall_addr) {
                    PatchOutcome::Patched(_) | PatchOutcome::AlreadyPatched => {
                        report.adjacent_patched += 1;
                    }
                    other => {
                        return Err(OfflineError::Rewrite(format!(
                            "adjacent site at {:#x} failed: {other:?}",
                            site.syscall_addr
                        )))
                    }
                }
            }
        }

        report.abom = *abom.stats();
        out.protect_all(false);
        Ok((out, report))
    }

    /// Linear sweep + `%rax` immediate tracking.
    fn scan(&self, image: &BinaryImage) -> (Vec<Site>, Vec<(u64, SkipReason)>) {
        let mut sites = Vec::new();
        let mut skipped = Vec::new();
        // (mov_addr, mov_len, nr) of the live immediate load into rax.
        let mut live: Option<(u64, usize, u64)> = None;

        for (addr, decoded) in sweep(image) {
            let d = match decoded {
                Ok(d) => d,
                Err(DecodeError::InvalidOpcode(_)) | Err(DecodeError::Unsupported(_)) => {
                    // Padding or data: the sweep resyncs one byte at a time.
                    live = None;
                    continue;
                }
                Err(DecodeError::Truncated) => break,
            };
            match d.inst {
                Inst::MovImm32 { reg: Reg::Rax, imm } => {
                    live = Some((addr, d.len, u64::from(imm)));
                }
                Inst::MovImm32SxR64 { reg: Reg::Rax, imm } if imm >= 0 => {
                    live = Some((addr, d.len, imm as u64));
                }
                Inst::MovImm32SxR64 { reg: Reg::Rax, .. } => live = None,
                // The zeroing idiom: rax is statically 0 (syscall read),
                // but the 2-byte instruction leaves no room for a detour
                // redirect in small wrappers — recorded and usually
                // skipped as RegionTooSmall.
                Inst::XorEaxEax => {
                    live = Some((addr, d.len, 0));
                }
                Inst::Syscall => {
                    if recognize(image, addr).is_some() {
                        // Adjacent patterns (including the stack-dispatch
                        // case, whose number is never statically known) go
                        // through the online replacement logic.
                        sites.push(Site {
                            mov_addr: addr,
                            mov_len: 0,
                            syscall_addr: addr,
                            nr: 0,
                            adjacent: true,
                        });
                    } else {
                        match live {
                            Some((mov_addr, mov_len, nr)) => {
                                sites.push(Site {
                                    mov_addr,
                                    mov_len,
                                    syscall_addr: addr,
                                    nr,
                                    adjacent: false,
                                });
                            }
                            None => skipped.push((addr, SkipReason::UnknownNumber)),
                        }
                    }
                    live = None; // syscall clobbers rax (return value)
                }
                // Instructions that overwrite rax.
                Inst::MovImm32 { .. } | Inst::MovImm32SxR64 { .. } => {} // other regs
                Inst::LoadRspDisp8R32 { reg: Reg::Rax, .. }
                | Inst::LoadRspDisp8R64 { reg: Reg::Rax, .. }
                | Inst::MovRegReg64 { dst: Reg::Rax, .. } => live = None,
                // Calls clobber rax; unconditional control flow ends the
                // block.
                Inst::CallRel32 { .. }
                | Inst::CallAbsIndirect { .. }
                | Inst::Ret
                | Inst::JmpRel8 { .. }
                | Inst::JmpRel32 { .. } => live = None,
                Inst::JccRel8 { .. } => {
                    if !self.config.across_conditional_branches {
                        live = None;
                    }
                }
                Inst::Int3 => live = None,
                // rax-preserving instructions.
                Inst::Nop
                | Inst::Ud2
                | Inst::Leave
                | Inst::PushRbp
                | Inst::PopRbp
                | Inst::TestEaxEax
                | Inst::AddRspImm8 { .. }
                | Inst::SubRspImm8 { .. }
                | Inst::LoadRspDisp8R32 { .. }
                | Inst::LoadRspDisp8R64 { .. }
                | Inst::StoreRspDisp8R64 { .. }
                | Inst::MovRegReg64 { .. } => {}
            }
        }
        (sites, skipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binaries::{
        glibc_wrapper_image, invoke, library_image, pthread_cancellable_wrapper_image, WrapperSpec,
        WrapperStyle,
    };
    use crate::handler::XContainerKernel;

    #[test]
    fn detour_patches_cancellable_wrapper() {
        let image = pthread_cancellable_wrapper_image(202);
        let (mut patched, report) = OfflinePatcher::new().patch(&image).unwrap();
        assert_eq!(report.detour_patched, 1);
        assert_eq!(report.adjacent_patched, 0);

        // Execution equivalence: wrapped syscall still reports nr 202, now
        // entirely via function call.
        let entry = patched.symbol("wrapper").unwrap();
        let mut kernel = XContainerKernel::new();
        for _ in 0..3 {
            invoke(&mut patched, &mut kernel, entry, None).unwrap();
        }
        assert_eq!(kernel.syscall_numbers(), vec![202; 3]);
        assert_eq!(kernel.stats().trapped, 0);
        assert_eq!(kernel.stats().via_function_call, 3);
    }

    #[test]
    fn adjacent_sites_use_online_replacement() {
        let image = glibc_wrapper_image(1);
        let (mut patched, report) = OfflinePatcher::new().patch(&image).unwrap();
        assert_eq!(report.adjacent_patched, 1);
        assert_eq!(report.detour_patched, 0);
        let entry = patched.symbol("wrapper").unwrap();
        let mut kernel = XContainerKernel::new();
        invoke(&mut patched, &mut kernel, entry, None).unwrap();
        assert_eq!(kernel.stats().via_function_call, 1);
        assert_eq!(kernel.stats().trapped, 0);
    }

    #[test]
    fn mixed_library_full_coverage() {
        let specs = [
            WrapperSpec {
                index: 0,
                style: WrapperStyle::GlibcSmall,
                nr: 0,
            },
            WrapperSpec {
                index: 1,
                style: WrapperStyle::GlibcLarge,
                nr: 15,
            },
            WrapperSpec {
                index: 2,
                style: WrapperStyle::PthreadCancellable,
                nr: 202,
            },
            WrapperSpec {
                index: 3,
                style: WrapperStyle::PthreadCancellable,
                nr: 1,
            },
        ];
        let image = library_image(&specs);
        let (mut patched, report) = OfflinePatcher::new().patch(&image).unwrap();
        assert_eq!(report.adjacent_patched, 2);
        assert_eq!(report.detour_patched, 2);
        assert_eq!(
            report.abom.hazard_scans_saved, 1,
            "two detour candidates must share one batched edge-list walk"
        );
        assert_eq!(report.abom.patched_sites(), 2, "adjacent pass counters");

        let mut kernel = XContainerKernel::new();
        for spec in &specs {
            let entry = patched.symbol(&format!("wrapper_{}", spec.index)).unwrap();
            invoke(&mut patched, &mut kernel, entry, None).unwrap();
        }
        assert_eq!(kernel.syscall_numbers(), vec![0, 15, 202, 1]);
        assert_eq!(kernel.stats().trapped, 0, "all sites should be patched");
    }

    #[test]
    fn go_stack_wrapper_is_adjacent_patched() {
        let specs = [WrapperSpec {
            index: 0,
            style: WrapperStyle::GoStack,
            nr: 0,
        }];
        let image = library_image(&specs);
        let (mut patched, report) = OfflinePatcher::new().patch(&image).unwrap();
        assert_eq!(report.adjacent_patched, 1);
        let entry = patched.symbol("wrapper_0").unwrap();
        let mut kernel = XContainerKernel::new();
        invoke(&mut patched, &mut kernel, entry, Some(39)).unwrap();
        assert_eq!(kernel.syscall_numbers(), vec![39]);
        assert_eq!(kernel.stats().trapped, 0);
    }

    #[test]
    fn conservative_config_skips_branchy_wrapper() {
        let image = pthread_cancellable_wrapper_image(202);
        let tool = OfflinePatcher::with_config(OfflineConfig {
            across_conditional_branches: false,
            ..OfflineConfig::default()
        });
        let (_, report) = tool.patch(&image).unwrap();
        assert_eq!(report.total_patched(), 0);
        assert!(report
            .skipped
            .iter()
            .any(|(_, r)| *r == SkipReason::UnknownNumber));
    }

    #[test]
    fn unknown_number_skipped() {
        // A bare syscall with no immediate mov in sight.
        use xc_isa::asm::Assembler;
        let mut a = Assembler::new(0x40_0000);
        a.label("raw").unwrap();
        a.inst(Inst::MovRegReg64 {
            dst: Reg::Rax,
            src: Reg::Rdi,
        });
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let image = a.finish().unwrap();
        let (_, report) = OfflinePatcher::new().patch(&image).unwrap();
        assert_eq!(report.total_patched(), 0);
        assert_eq!(report.skipped.len(), 1);
        assert_eq!(report.skipped[0].1, SkipReason::UnknownNumber);
    }

    #[test]
    fn xor_zero_region_too_small() {
        let specs = [WrapperSpec {
            index: 0,
            style: WrapperStyle::XorZeroRead,
            nr: 0,
        }];
        let image = library_image(&specs);
        let (_, report) = OfflinePatcher::new().patch(&image).unwrap();
        assert_eq!(report.total_patched(), 0);
        assert!(report
            .skipped
            .iter()
            .any(|(_, r)| *r == SkipReason::RegionTooSmall));
    }

    #[test]
    fn patched_image_preserves_symbols_and_grows() {
        let image = pthread_cancellable_wrapper_image(1);
        let (patched, _) = OfflinePatcher::new().patch(&image).unwrap();
        assert_eq!(patched.symbol("wrapper"), image.symbol("wrapper"));
        assert!(patched.len() > image.len());
        assert_eq!(patched.base(), image.base());
    }

    #[test]
    fn trampolines_pack_by_length_and_still_reverify() {
        // Two cancellable wrappers → two detour trampolines. Each is
        // interior (5 bytes: test/jcc/nop) + vsyscall call (7) + jmp
        // back (5) = 17 bytes; packed back-to-back the trampoline area
        // is exactly 34 bytes, not two 16-byte-aligned slots.
        let specs = [
            WrapperSpec {
                index: 0,
                style: WrapperStyle::PthreadCancellable,
                nr: 202,
            },
            WrapperSpec {
                index: 1,
                style: WrapperStyle::PthreadCancellable,
                nr: 1,
            },
        ];
        let image = library_image(&specs);
        let (mut patched, report) = OfflinePatcher::new().patch(&image).unwrap();
        assert_eq!(report.detour_patched, 2);
        let tramp_area_start = (image.len() as u64).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        assert_eq!(
            patched.len() as u64 - tramp_area_start,
            34,
            "trampolines must pack by actual length"
        );

        let shape = xc_verify::reverify(&patched, image.len());
        assert!(shape.ok(), "violations: {:?}", shape.violations);
        assert_eq!(shape.detours.len(), 2);

        let mut kernel = XContainerKernel::new();
        for spec in &specs {
            let entry = patched.symbol(&format!("wrapper_{}", spec.index)).unwrap();
            invoke(&mut patched, &mut kernel, entry, None).unwrap();
        }
        assert_eq!(kernel.syscall_numbers(), vec![202, 1]);
        assert_eq!(kernel.stats().trapped, 0);
    }

    #[test]
    fn default_config_skips_libc_shim() {
        let image = library_image(&[WrapperSpec {
            index: 0,
            style: WrapperStyle::LibcShim,
            nr: 39,
        }]);
        let (_, report) = OfflinePatcher::new().patch(&image).unwrap();
        assert_eq!(report.total_patched(), 0);
        assert_eq!(report.interprocedural_recovered, 0);
        assert!(report
            .skipped
            .iter()
            .any(|(_, r)| *r == SkipReason::UnknownNumber));
    }

    #[test]
    fn interprocedural_config_recovers_libc_shim() {
        let image = library_image(&[WrapperSpec {
            index: 0,
            style: WrapperStyle::LibcShim,
            nr: 39,
        }]);
        let tool = OfflinePatcher::with_config(OfflineConfig {
            interprocedural: true,
            ..OfflineConfig::default()
        });
        let (mut patched, report) = tool.patch(&image).unwrap();
        assert_eq!(report.detour_patched, 1);
        assert_eq!(report.interprocedural_recovered, 1);
        assert!(!report
            .skipped
            .iter()
            .any(|(_, r)| *r == SkipReason::UnknownNumber));

        let shape = xc_verify::reverify(&patched, image.len());
        assert!(shape.ok(), "violations: {:?}", shape.violations);

        // Execution equivalence: the shim's syscall now runs entirely via
        // the vsyscall function call, still reporting nr 39.
        let entry = patched.symbol("wrapper_0").unwrap();
        let mut kernel = XContainerKernel::new();
        for _ in 0..3 {
            invoke(&mut patched, &mut kernel, entry, None).unwrap();
        }
        assert_eq!(kernel.syscall_numbers(), vec![39; 3]);
        assert_eq!(kernel.stats().trapped, 0);
        assert_eq!(kernel.stats().via_function_call, 3);
    }
}
