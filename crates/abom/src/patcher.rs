//! The online patcher.
//!
//! Runs inside the X-Kernel's syscall-forwarding path. On each trapped
//! `syscall` it recognizes the surrounding pattern ([`crate::patterns`])
//! and rewrites it with atomic ≤ 8-byte compare-exchanges, exactly as §4.4
//! describes:
//!
//! * interrupts are disabled and the CR0 write-protect bit cleared for the
//!   duration of the patch, so every exchange writes through the read-only
//!   text mapping; [`BinaryImage`] keeps no page protection for it to
//!   clear, and [`BinaryImage::cmpxchg`] is the exchange itself,
//! * 7-byte patterns are replaced in one exchange,
//! * the 9-byte pattern is replaced in two phases, each of which leaves the
//!   binary execution-equivalent: phase 1 turns the 7-byte `mov` into the
//!   call (leaving the trailing `syscall`), phase 2 turns the `syscall`
//!   into `jmp -9`,
//! * "the binary replacement only needs to be performed once for each
//!   place" — a concurrent retry whose expected bytes no longer match is
//!   treated as already-patched, not an error.

use xc_isa::image::{BinaryImage, ImageError};
use xc_isa::inst::Inst;

use crate::patterns::{recognize, Pattern};
use crate::stats::AbomStats;
use crate::table;

/// Configuration knobs for the patcher (used by the ablation benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbomConfig {
    /// Master switch: when false every syscall is forwarded untouched
    /// (the "ABOM disabled" rows of §5.2).
    pub enabled: bool,
    /// Whether phase 2 of the 9-byte replacement runs (ablation: phase 1
    /// alone is still correct, just leaves a dead `syscall`).
    pub nine_byte_phase2: bool,
    /// Run the full `xc-verify` static analysis on every trapped syscall
    /// and refuse to patch sites it cannot prove
    /// [`Safe`](xc_verify::Verdict::Safe). Off by default: the online
    /// replacements carry their own safety argument (trap-driven, atomic,
    /// `#UD`-recoverable), so the analysis is redundant — this knob exists
    /// to *measure* that redundancy (the `verify_study` ablation bench).
    /// The per-trap analysis is affordable because an
    /// [`xc_verify::AnalysisCache`] keyed on the image as loaded runs the
    /// pipeline once per image state; every other trap is a hit that
    /// loads the image's memoized [`digest`](BinaryImage::digest), probes
    /// the map once and returns the shared analysis.
    pub preflight_verify: bool,
}

impl Default for AbomConfig {
    fn default() -> Self {
        AbomConfig {
            enabled: true,
            nine_byte_phase2: true,
            preflight_verify: false,
        }
    }
}

/// Result of one patch attempt on a trapped syscall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatchOutcome {
    /// The site was rewritten (pattern recorded in the stats).
    Patched(Pattern),
    /// Another vCPU patched the site first; nothing to do.
    AlreadyPatched,
    /// The surrounding bytes matched no known pattern; the syscall keeps
    /// trapping.
    NotRecognized,
    /// Pre-flight verification could not prove the site safe
    /// (only with [`AbomConfig::preflight_verify`]); the syscall keeps
    /// trapping.
    VerifyRejected,
    /// The optimizer is disabled.
    Disabled,
    /// The image rejected the write (e.g. out-of-bounds after a bad
    /// recognition) — the syscall keeps trapping.
    Failed(ImageError),
}

impl PatchOutcome {
    /// Whether the site will dispatch via function call from now on.
    pub fn is_optimized(&self) -> bool {
        matches!(
            self,
            PatchOutcome::Patched(_) | PatchOutcome::AlreadyPatched
        )
    }
}

/// The Automatic Binary Optimization Module.
///
/// # Example
///
/// ```
/// use xc_abom::binaries::glibc_wrapper_image;
/// use xc_abom::patcher::{Abom, PatchOutcome};
///
/// let mut image = glibc_wrapper_image(0); // __read-style wrapper
/// let entry = image.symbol("wrapper").unwrap();
/// let syscall_addr = entry + 5; // after the 5-byte mov
///
/// let mut abom = Abom::new();
/// let outcome = abom.on_syscall_trap(&mut image, syscall_addr);
/// assert!(outcome.is_optimized());
/// // Figure 2, case 1: callq *0xffffffffff600008.
/// assert_eq!(
///     image.read_bytes(entry, 7).unwrap(),
///     [0xff, 0x14, 0x25, 0x08, 0x00, 0x60, 0xff]
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct Abom {
    config: AbomConfig,
    stats: AbomStats,
    /// Memoized pre-flight analyses (only populated with
    /// [`AbomConfig::preflight_verify`]). Keyed on the image as loaded,
    /// bytes included, so a successful patch automatically invalidates:
    /// the next trap sees new bytes and re-analyzes. Repeated traps over
    /// an unchanged image — unrecognized and cancellable wrappers, the
    /// common steady state — hit the cache.
    verify_cache: xc_verify::AnalysisCache,
}

impl Abom {
    /// Creates the patcher with default configuration.
    pub fn new() -> Self {
        Abom::default()
    }

    /// Creates the patcher with explicit configuration.
    pub fn with_config(config: AbomConfig) -> Self {
        Abom {
            config,
            stats: AbomStats::new(),
            verify_cache: xc_verify::AnalysisCache::new(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &AbomStats {
        &self.stats
    }

    /// Mutable statistics access (the syscall handler shares counters).
    pub fn stats_mut(&mut self) -> &mut AbomStats {
        &mut self.stats
    }

    /// Handles one trapped `syscall` at `syscall_addr`: recognizes and
    /// patches the site. Call *before* forwarding the syscall (the current
    /// invocation still completes via the trap path either way).
    pub fn on_syscall_trap(&mut self, image: &mut BinaryImage, syscall_addr: u64) -> PatchOutcome {
        if !self.config.enabled {
            return PatchOutcome::Disabled;
        }
        let pattern = recognize(image, syscall_addr);
        if self.config.preflight_verify {
            // The verifier-in-the-loop kernel re-proves *every* trapped
            // site against the current image state, recognized or not —
            // that is the ablation being measured. Memoization by content
            // makes the repeated proofs cheap: only the first trap after
            // each byte change pays the pipeline; every further trap on an
            // unchanged image (unrecognized and cancellable wrappers trap
            // forever) is a cache hit. Only sites the pattern matcher
            // would actually rewrite can be vetoed.
            let analysis = self
                .verify_cache
                .analyze(&xc_verify::Verifier::new(), image);
            self.stats.verify_cache_hits = self.verify_cache.hits();
            self.stats.verify_cache_misses = self.verify_cache.misses();
            if pattern.is_some()
                && analysis.verdict_at(syscall_addr) != Some(xc_verify::Verdict::Safe)
            {
                self.stats.verify_rejected += 1;
                return PatchOutcome::VerifyRejected;
            }
        }
        let Some(pattern) = pattern else {
            self.stats.unrecognized += 1;
            return PatchOutcome::NotRecognized;
        };
        match self.apply(image, pattern, syscall_addr) {
            Ok(outcome) => {
                if let PatchOutcome::Patched(p) = outcome {
                    match p {
                        Pattern::MovEaxImm { .. } => self.stats.patched_case1 += 1,
                        Pattern::MovRaxFromStack { .. } => self.stats.patched_case2 += 1,
                        Pattern::MovRaxImm { .. } => self.stats.patched_case3 += 1,
                    }
                }
                outcome
            }
            Err(e) => PatchOutcome::Failed(e),
        }
    }

    fn apply(
        &self,
        image: &mut BinaryImage,
        pattern: Pattern,
        syscall_addr: u64,
    ) -> Result<PatchOutcome, ImageError> {
        match pattern {
            Pattern::MovEaxImm { mov_addr, nr } => {
                let entry = table::entry_for_number(nr).expect("recognize() validated the number");
                let call = Inst::CallAbsIndirect { target: entry }.encode();
                let mut original = Vec::with_capacity(7);
                Inst::MovImm32 {
                    reg: xc_isa::inst::Reg::Rax,
                    imm: nr as u32,
                }
                .encode_into(&mut original);
                Inst::Syscall.encode_into(&mut original);
                self.exchange(image, mov_addr, &original, &call)
                    .map(|fresh| finish_outcome(fresh, pattern))
            }
            Pattern::MovRaxFromStack { mov_addr, disp } => {
                let entry = table::stack_dispatch_entry(disp);
                let call = Inst::CallAbsIndirect { target: entry }.encode();
                let mut original = Vec::with_capacity(7);
                Inst::LoadRspDisp8R64 {
                    reg: xc_isa::inst::Reg::Rax,
                    disp,
                }
                .encode_into(&mut original);
                Inst::Syscall.encode_into(&mut original);
                self.exchange(image, mov_addr, &original, &call)
                    .map(|fresh| finish_outcome(fresh, pattern))
            }
            Pattern::MovRaxImm { mov_addr, nr } => {
                let entry = table::entry_for_number(nr).expect("recognize() validated the number");
                // Phase 1: replace the 7-byte mov with the call; leave the
                // syscall untouched. Intermediate state: call + syscall,
                // which is execution-equivalent because the handler skips a
                // syscall found at the return address.
                let call = Inst::CallAbsIndirect { target: entry }.encode();
                let original_mov = Inst::MovImm32SxR64 {
                    reg: xc_isa::inst::Reg::Rax,
                    imm: nr as i32,
                }
                .encode();
                let fresh = self.exchange(image, mov_addr, &original_mov, &call)?;
                // Phase 2: replace the now-dead syscall with jmp -9 (back
                // to the call), equally equivalent via the handler check.
                if self.config.nine_byte_phase2 {
                    let jmp = Inst::JmpRel8 { rel: -9 }.encode();
                    let syscall = Inst::Syscall.encode();
                    // A mismatch here means another vCPU already completed
                    // phase 2 — benign.
                    let _ = self.exchange(image, syscall_addr, &syscall, &jmp);
                }
                Ok(finish_outcome(fresh, pattern))
            }
        }
    }

    /// One atomic exchange (CR0.WP cleared). `Ok(true)` means this
    /// call performed the patch; `Ok(false)` means the expected bytes were
    /// already gone (concurrent patch — treated as success per §4.4).
    fn exchange(
        &self,
        image: &mut BinaryImage,
        addr: u64,
        expected: &[u8],
        new: &[u8],
    ) -> Result<bool, ImageError> {
        match image.cmpxchg(addr, expected, new) {
            Ok(()) => Ok(true),
            Err(ImageError::ExchangeMismatch { .. }) => {
                // Already patched by a concurrent vCPU: verify the new bytes
                // are in place; if they are anything else, report mismatch
                // as a failure.
                let current = image.read_bytes(addr, new.len())?;
                if current == new {
                    Ok(false)
                } else {
                    Err(ImageError::ExchangeMismatch { addr })
                }
            }
            Err(e) => Err(e),
        }
    }
}

fn finish_outcome(fresh: bool, pattern: Pattern) -> PatchOutcome {
    if fresh {
        PatchOutcome::Patched(pattern)
    } else {
        PatchOutcome::AlreadyPatched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xc_isa::asm::Assembler;
    use xc_isa::inst::{Inst, Reg};

    fn case1_image(nr: u32) -> (BinaryImage, u64) {
        let mut a = Assembler::new(0x40_0000);
        a.label("wrapper").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: nr,
        });
        let syscall_at = a.here();
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        (a.finish().unwrap(), syscall_at)
    }

    #[test]
    fn case1_patch_bytes_match_figure2() {
        let (mut img, at) = case1_image(0);
        let mut abom = Abom::new();
        let outcome = abom.on_syscall_trap(&mut img, at);
        assert!(matches!(
            outcome,
            PatchOutcome::Patched(Pattern::MovEaxImm { nr: 0, .. })
        ));
        assert_eq!(
            img.read_bytes(0x40_0000, 7).unwrap(),
            [0xff, 0x14, 0x25, 0x08, 0x00, 0x60, 0xff]
        );
        assert_eq!(abom.stats().patched_case1, 1);
    }

    #[test]
    fn second_trap_reports_already_patched() {
        let (mut img, at) = case1_image(3);
        let mut abom = Abom::new();
        assert!(matches!(
            abom.on_syscall_trap(&mut img, at),
            PatchOutcome::Patched(_)
        ));
        // The same site cannot trap again in reality (the bytes changed),
        // but a concurrent vCPU may race; simulate the race by re-applying.
        let again = abom.on_syscall_trap(&mut img, at);
        // After the patch the bytes at `at` are the call tail — not a
        // syscall — so recognition fails cleanly.
        assert_eq!(again, PatchOutcome::NotRecognized);
    }

    #[test]
    fn case3_two_phase_bytes() {
        let mut a = Assembler::new(0x40_0000);
        a.inst(Inst::MovImm32SxR64 {
            reg: Reg::Rax,
            imm: 15,
        });
        let at = a.here();
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let mut img = a.finish().unwrap();

        let mut abom = Abom::new();
        let outcome = abom.on_syscall_trap(&mut img, at);
        assert!(matches!(
            outcome,
            PatchOutcome::Patched(Pattern::MovRaxImm { nr: 15, .. })
        ));
        // Phase 1: callq *0xffffffffff600080; phase 2: eb f7.
        assert_eq!(
            img.read_bytes(0x40_0000, 9).unwrap(),
            [0xff, 0x14, 0x25, 0x80, 0x00, 0x60, 0xff, 0xeb, 0xf7]
        );
        assert_eq!(abom.stats().patched_case3, 1);
    }

    #[test]
    fn case3_phase1_only_when_configured() {
        let mut a = Assembler::new(0x40_0000);
        a.inst(Inst::MovImm32SxR64 {
            reg: Reg::Rax,
            imm: 15,
        });
        let at = a.here();
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let mut img = a.finish().unwrap();

        let mut abom = Abom::with_config(AbomConfig {
            enabled: true,
            nine_byte_phase2: false,
            preflight_verify: false,
        });
        abom.on_syscall_trap(&mut img, at);
        // Syscall still in place after phase 1.
        assert_eq!(img.read_bytes(at, 2).unwrap(), [0x0f, 0x05]);
    }

    #[test]
    fn case2_patch_targets_stack_entry() {
        let mut a = Assembler::new(0x40_0000);
        a.inst(Inst::LoadRspDisp8R64 {
            reg: Reg::Rax,
            disp: 8,
        });
        let at = a.here();
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let mut img = a.finish().unwrap();

        let mut abom = Abom::new();
        let outcome = abom.on_syscall_trap(&mut img, at);
        assert!(matches!(
            outcome,
            PatchOutcome::Patched(Pattern::MovRaxFromStack { disp: 8, .. })
        ));
        assert_eq!(
            img.read_bytes(0x40_0000, 7).unwrap(),
            [0xff, 0x14, 0x25, 0x08, 0x0c, 0x60, 0xff]
        );
    }

    #[test]
    fn disabled_module_forwards_untouched() {
        let (mut img, at) = case1_image(1);
        let before = img.read_bytes(0x40_0000, 7).unwrap().to_vec();
        let mut abom = Abom::with_config(AbomConfig {
            enabled: false,
            nine_byte_phase2: true,
            preflight_verify: false,
        });
        assert_eq!(abom.on_syscall_trap(&mut img, at), PatchOutcome::Disabled);
        assert_eq!(img.read_bytes(0x40_0000, 7).unwrap(), before.as_slice());
    }

    #[test]
    fn unrecognized_counts() {
        let mut a = Assembler::new(0x40_0000);
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 2,
        });
        a.inst(Inst::Nop); // break adjacency
        let at = a.here();
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let mut img = a.finish().unwrap();
        let mut abom = Abom::new();
        assert_eq!(
            abom.on_syscall_trap(&mut img, at),
            PatchOutcome::NotRecognized
        );
        assert_eq!(abom.stats().unrecognized, 1);
    }

    #[test]
    fn preflight_repeated_traps_on_same_body_hit_the_cache() {
        // A register-indirect wrapper is never rewritten, so its body —
        // and therefore the image content — is identical on every trap:
        // the first pre-flight analysis is a miss, each repeat is a hit.
        let mut a = Assembler::new(0x40_0000);
        a.label("wrapper").unwrap();
        a.inst(Inst::MovRegReg64 {
            dst: Reg::Rax,
            src: Reg::Rdi,
        });
        let at = a.here();
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let mut img = a.finish().unwrap();

        let mut abom = Abom::with_config(AbomConfig {
            enabled: true,
            nine_byte_phase2: true,
            preflight_verify: true,
        });
        for _ in 0..3 {
            assert_eq!(
                abom.on_syscall_trap(&mut img, at),
                PatchOutcome::NotRecognized
            );
        }
        assert_eq!(abom.stats().verify_cache_misses, 1);
        assert_eq!(
            abom.stats().verify_cache_hits,
            2,
            "repeated analyses of the same body must hit"
        );
        // Unrecognized sites are counted but never vetoed: only sites the
        // pattern matcher would rewrite can be rejected.
        assert_eq!(abom.stats().unrecognized, 3);
        assert_eq!(abom.stats().verify_rejected, 0);
    }

    #[test]
    fn concurrent_patch_race_is_benign() {
        let (mut img, at) = case1_image(2);
        // Simulate a racing vCPU patching first.
        let entry = table::entry_for_number(2).unwrap();
        let call = Inst::CallAbsIndirect { target: entry }.encode();
        let mut original = Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 2,
        }
        .encode();
        original.extend_from_slice(&Inst::Syscall.encode());
        img.cmpxchg(at - 5, &original, &call).unwrap();
        // Our exchange sees the mismatch but verifies the new bytes.
        let abom2 = Abom::new();
        let result = abom2.apply(
            &mut img,
            Pattern::MovEaxImm {
                mov_addr: at - 5,
                nr: 2,
            },
            at,
        );
        assert_eq!(result.unwrap(), PatchOutcome::AlreadyPatched);
    }
}
