//! The offline binary patching tool.
//!
//! "For more complicated cases, it is possible to inject code into the
//! binary and re-direct a bigger chunk of code. We also provide a tool to
//! do this offline." (§4.4). The canonical customer is libpthread's
//! cancellable syscall wrappers, where the cancel-state check sits between
//! the `mov $nr,%eax` and the `syscall` — patching two such locations lifts
//! MySQL from 44.6% to 92.2% syscall reduction (Table 1).
//!
//! The tool performs classic **detour patching**, driven by one `xc-verify`
//! static analysis of the image:
//!
//! 1. the analysis report lists every `syscall` site with the region the
//!    verifier's straight-line `%rax` walk found for it and the verdict it
//!    reached for that region,
//! 2. sites whose preceding bytes [`recognize`] matches are handed to the
//!    online patcher logic (same 7/9-byte replacements),
//! 3. any other site is detoured when its number is an immediate (or, with
//!    [`OfflineConfig::interprocedural`], a propagated constant), its
//!    region from the defining instruction through the `syscall` can hold
//!    a 5-byte `jmp rel32`, and its verdict is `Safe`: the region is
//!    replaced by a `jmp rel32` to a trampoline appended to the image,
//!    which re-executes the displaced instructions with the
//!    `mov`+`syscall` collapsed into a vsyscall-table call, then jumps
//!    back,
//! 4. every other site is left to trap, with a [`SkipReason`] that carries
//!    the verdict when the verifier did not prove the region safe.
//!
//! Historically, detour patchers *assume* no external jump targets the
//! interior of a detoured region. This tool **proves** it instead: a
//! `Safe` verdict means the CFG and dataflow over the same image found no
//! entrance into the region's interior, no interior branch the trampoline
//! cannot relocate, one constant number in the table and a dead `%rcx`
//! after the site. Interior bytes of regions that do get detoured are
//! still filled with `int3` so even an unproven violation fails loudly
//! rather than silently.

use std::error::Error;
use std::fmt;

use xc_isa::image::{BinaryImage, PAGE_SIZE};
use xc_isa::inst::Inst;
use xc_verify::{AnalysisCache, SiteKind, SiteReport, Verdict, Verifier};

use crate::patcher::{Abom, PatchOutcome};
use crate::patterns::recognize;
use crate::stats::AbomStats;
use crate::table;

/// Why a syscall site was left unpatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// No immediate `mov` into `%rax` (nor, with
    /// [`OfflineConfig::interprocedural`], a propagated constant) defines
    /// the number.
    UnknownNumber,
    /// The detour region is too small to hold the redirect jump.
    RegionTooSmall,
    /// The static analyzer did not prove the region safe to detour; this
    /// is its verdict for the site (never `Safe`).
    Verdict(Verdict),
}

impl fmt::Display for SkipReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkipReason::UnknownNumber => write!(f, "syscall number not statically known"),
            SkipReason::RegionTooSmall => write!(f, "region too small for detour"),
            SkipReason::Verdict(v) => write!(f, "verifier verdict: {v}"),
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
    /// Sites skipped, with reasons, in address order.
    pub skipped: Vec<(u64, SkipReason)>,
    /// Counters from the run's ABOM instance (the adjacent-replacement
    /// pass).
    pub abom: AbomStats,
    /// Detours of sites whose number the interprocedural verifier
    /// propagated ([`SiteKind::PropagatedNumber`]; only nonzero with
    /// [`OfflineConfig::interprocedural`]).
    pub interprocedural_recovered: u64,
}

impl OfflineReport {
    /// Total sites rewritten.
    pub fn total_patched(&self) -> u64 {
        self.adjacent_patched + self.detour_patched
    }
}

/// Configuration for the offline tool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OfflineConfig {
    /// Also detour the sites whose number the interprocedural verifier
    /// proved constant through copies, spills or call edges (`Safe`
    /// [`SiteKind::PropagatedNumber`] sites), with the region anchored at
    /// the propagating instruction the verifier names. Off by default:
    /// the default tool detours only immediate-number sites, like the
    /// paper's tool, and skips propagated ones as
    /// [`SkipReason::UnknownNumber`], so existing Table-1 numbers are
    /// unchanged unless a caller opts in.
    pub interprocedural: bool,
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
    config: OfflineConfig,
}

impl OfflinePatcher {
    /// Creates the tool with default configuration.
    pub fn new() -> Self {
        OfflinePatcher::default()
    }

    /// Creates the tool with explicit configuration.
    pub fn with_config(config: OfflineConfig) -> Self {
        OfflinePatcher { config }
    }

    /// Patches `image`, returning a rewritten image (original bytes plus
    /// appended trampolines) and a report.
    ///
    /// # Errors
    ///
    /// Returns [`OfflineError`] if an internal rewrite fails — sites left
    /// unpatched are reported in [`OfflineReport::skipped`], not as errors.
    pub fn patch(&self, image: &BinaryImage) -> Result<(BinaryImage, OfflineReport), OfflineError> {
        let mut cache = AnalysisCache::new();
        self.patch_with_cache(image, &mut cache)
    }

    /// Like [`OfflinePatcher::patch`], but serving the static analysis
    /// through a caller-owned [`AnalysisCache`], with one lookup per call.
    /// Callers that already analyzed `image` (study harnesses, batch
    /// pipelines) share the cache so the image is analyzed once, not once
    /// per consumer.
    ///
    /// The analysis decides every site, in address order: a site whose
    /// preceding bytes [`recognize`] matches gets the online 7/9-byte
    /// replacement, and any other site is detoured iff its
    /// [`SiteReport`] kind is [`SiteKind::ImmediateNumber`] (or
    /// [`SiteKind::PropagatedNumber`] with
    /// [`OfflineConfig::interprocedural`]), its region from the defining
    /// instruction through the `syscall` is at least 5 bytes, and its
    /// verdict is `Safe`.
    ///
    /// # Errors
    ///
    /// Returns [`OfflineError`] if an internal rewrite fails — sites left
    /// unpatched are reported in [`OfflineReport::skipped`], not as errors.
    pub fn patch_with_cache(
        &self,
        image: &BinaryImage,
        cache: &mut AnalysisCache,
    ) -> Result<(BinaryImage, OfflineReport), OfflineError> {
        // Memoized: a hit if the caller analyzed the image first.
        let analysis = cache.analyze(&Verifier::new(), image);

        // Build the output: original bytes + page-aligned trampoline area.
        let base = image.base();
        let text_len = image.len();
        let tramp_start_off = (text_len as u64).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let mut bytes = image
            .read_bytes(base, text_len)
            .map_err(|e| OfflineError::Rewrite(e.to_string()))?
            .to_vec();
        bytes.resize(tramp_start_off as usize, 0xcc);

        let mut report = OfflineReport::default();
        let mut adjacent = Vec::new();
        let mut tramp_cursor = base + tramp_start_off;
        for site in &analysis.report().sites {
            if recognize(image, site.syscall_addr).is_some() {
                // Adjacent patterns (including the stack-dispatch case,
                // whose number is never statically known) go through the
                // online replacement logic below.
                adjacent.push(site.syscall_addr);
                continue;
            }
            let (mov_addr, mov_len, entry) = match self.detour_region(site) {
                Ok(region) => region,
                Err(reason) => {
                    report.skipped.push((site.syscall_addr, reason));
                    continue;
                }
            };
            let region_end = site.syscall_addr + 2;

            // Trampoline: displaced interior (minus mov and syscall), then
            // the vsyscall call, then a jump back to the region end.
            let interior_start = (mov_addr - base) as usize + usize::from(mov_len);
            let interior_end = (site.syscall_addr - base) as usize;
            let mut tramp = bytes[interior_start..interior_end].to_vec();
            Inst::CallAbsIndirect { target: entry }.encode_into(&mut tramp);
            let jmp_at = tramp_cursor + tramp.len() as u64;
            let rel = region_end as i64 - (jmp_at + 5) as i64;
            Inst::JmpRel32 { rel: rel as i32 }.encode_into(&mut tramp);
            let off = (tramp_cursor - base) as usize;
            if bytes.len() < off + tramp.len() {
                bytes.resize(off + tramp.len(), 0xcc);
            }
            bytes[off..off + tramp.len()].copy_from_slice(&tramp);

            // The detour jump over the region, whose remaining bytes are
            // int3-filled so stray jumps fail loudly. Regions never
            // overlap (each ends at its own `syscall` and holds no other),
            // so later trampolines still copy original bytes.
            let region_off = (mov_addr - base) as usize;
            let rel = tramp_cursor as i64 - (mov_addr + 5) as i64;
            let mut jmp = Vec::new();
            Inst::JmpRel32 { rel: rel as i32 }.encode_into(&mut jmp);
            bytes[region_off..region_off + 5].copy_from_slice(&jmp);
            bytes[region_off + 5..(region_end - base) as usize].fill(0xcc);

            // Pack trampolines back-to-back: each is only entered via its
            // detour jump and left via its closing jump, so alignment
            // padding between them would buy nothing.
            tramp_cursor += tramp.len() as u64;
            report.detour_patched += 1;
            if site.kind == SiteKind::PropagatedNumber {
                report.interprocedural_recovered += 1;
            }
        }

        let mut out = BinaryImage::new(base, bytes);
        for (name, addr) in image.symbols() {
            out.add_symbol(name, addr);
        }

        // Adjacent sites: run the online replacement logic on the copy.
        let mut abom = Abom::new();
        for syscall_addr in adjacent {
            match abom.on_syscall_trap(&mut out, syscall_addr) {
                PatchOutcome::Patched(_) | PatchOutcome::AlreadyPatched => {
                    report.adjacent_patched += 1;
                }
                other => {
                    return Err(OfflineError::Rewrite(format!(
                        "adjacent site at {syscall_addr:#x} failed: {other:?}"
                    )))
                }
            }
        }

        report.abom = *abom.stats();
        Ok((out, report))
    }

    /// The detour region `(mov_addr, mov_len, vsyscall entry)` of a site
    /// [`recognize`] does not match, or why the site is skipped.
    fn detour_region(&self, site: &SiteReport) -> Result<(u64, u8, u64), SkipReason> {
        let detourable = site.kind == SiteKind::ImmediateNumber
            || (self.config.interprocedural && site.kind == SiteKind::PropagatedNumber);
        let (true, Some(mov_addr), Some(mov_len)) = (detourable, site.mov_addr, site.mov_len)
        else {
            return Err(SkipReason::UnknownNumber);
        };
        if site.syscall_addr + 2 - mov_addr < 5 {
            return Err(SkipReason::RegionTooSmall);
        }
        if site.verdict != Verdict::Safe {
            return Err(SkipReason::Verdict(site.verdict));
        }
        let entry = site
            .number
            .and_then(|nr| u64::try_from(nr).ok())
            .and_then(table::entry_for_number)
            .expect("a Safe verdict proves the number is in the table");
        Ok((mov_addr, mov_len, entry))
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
    use xc_isa::inst::Reg;

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
    fn rcx_consumer_is_not_detoured() {
        // A non-adjacent pair whose caller reads the %rcx the syscall
        // clobbers: the replacement call would preserve it, so the
        // verifier proves the detour unsafe and the site keeps trapping.
        use xc_isa::asm::Assembler;
        use xc_verify::UnsafeReason;
        let mut a = Assembler::new(0x40_0000);
        a.label("probe").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 39,
        });
        a.inst(Inst::Nop);
        let syscall_at = a.here();
        a.inst(Inst::Syscall);
        a.inst(Inst::MovRegReg64 {
            dst: Reg::Rdx,
            src: Reg::Rcx,
        });
        a.inst(Inst::Ret);
        let image = a.finish().unwrap();
        let (_, report) = OfflinePatcher::new().patch(&image).unwrap();
        assert_eq!(report.total_patched(), 0);
        assert_eq!(
            report.skipped,
            vec![(
                syscall_at,
                SkipReason::Verdict(Verdict::Unsafe(UnsafeReason::RcxLiveAfterSite))
            )]
        );
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
