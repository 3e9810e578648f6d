//! Graceful degradation of the ABOM fast path.
//!
//! §4.4's safety story: every patched site keeps the `syscall` trap as a
//! correct fallback. This module exercises it under injected failure —
//! during a warm-up pass over a synthetic wrapper corpus, the plan can
//! veto a site's verification ([`FaultKind::VerifyReject`], the site is
//! never patched) or fail a patch after the fact
//! ([`FaultKind::PatchFail`], the patch is undone with
//! [`Abom::rollback`]). Either way the site is permanently demoted to
//! the forwarded/trap route; it costs more per syscall but never
//! computes wrongly. The chaos world converts the demoted fraction into
//! a per-request syscall surcharge.

use xc_abom::binaries::glibc_wrapper_image;
use xc_abom::patcher::{Abom, PatchOutcome};
use xc_abom::AbomStats;
use xc_libos::syscalls::VSYSCALL_TABLE_ENTRIES;

use crate::plan::{FaultKind, FaultPlan};

/// Width of the case-1 pattern ABOM rewrites (`mov $nr,%eax; syscall`).
const CASE1_PATTERN_LEN: usize = 7;
/// Offset of the `syscall` instruction inside the case-1 wrapper.
const CASE1_SYSCALL_OFFSET: u64 = 5;

/// Outcome of one warm-up pass over the wrapper corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmupReport {
    /// Sites visited (syscall numbers `0..sites`).
    pub sites: u64,
    /// Sites left patched on the function-call fast path.
    pub patched: u64,
    /// Sites whose verification was vetoed (never patched).
    pub verify_rejected: u64,
    /// Sites patched and then rolled back after an injected failure.
    pub rolled_back: u64,
    /// Sites demoted to the fallback route (vetoed + rolled back +
    /// anything ABOM itself refused), counting only numbers with a
    /// vsyscall entry: the rest never left the fallback.
    pub demoted: u64,
    /// The optimizer's own counters for the pass.
    pub abom: AbomStats,
}

/// Runs ABOM over a corpus of `sites` glibc-style wrappers (one per
/// syscall number), injecting verification vetoes and patch failures
/// from `plan`, and demotes every site that cannot stay on the
/// function-call path.
///
/// Deterministic: decisions come from the plan's
/// [`FaultKind::VerifyReject`] and [`FaultKind::PatchFail`] streams in
/// site order. With a disabled plan every recognizable site ends up
/// patched and nothing is demoted.
///
/// # Panics
///
/// Panics if the synthetic wrapper corpus is malformed (assembler
/// invariants, not inputs).
pub fn warm_up(plan: &mut FaultPlan, sites: u64) -> WarmupReport {
    let mut abom = Abom::new();
    let mut report = WarmupReport {
        sites,
        patched: 0,
        verify_rejected: 0,
        rolled_back: 0,
        demoted: 0,
        abom: AbomStats::new(),
    };
    for nr in 0..sites {
        // Each number is visited once, so leaving the function-call path
        // demotes it exactly when it had a vsyscall entry to leave.
        let demotable = u64::from(nr < VSYSCALL_TABLE_ENTRIES);
        if plan.should_inject(FaultKind::VerifyReject) {
            // Pre-flight verification vetoes the site: never patched,
            // permanently on the trap path.
            report.verify_rejected += 1;
            report.demoted += demotable;
            continue;
        }
        let mut image = glibc_wrapper_image(nr);
        let entry = image.symbol("wrapper").expect("wrapper symbol exists");
        let original: Vec<u8> = image
            .read_bytes(entry, CASE1_PATTERN_LEN)
            .expect("wrapper prologue readable")
            .to_vec();
        match abom.on_syscall_trap(&mut image, entry + CASE1_SYSCALL_OFFSET) {
            PatchOutcome::Patched(_) if plan.should_inject(FaultKind::PatchFail) => {
                // Post-patch failure: undo the rewrite and fall back.
                let patched: Vec<u8> = image
                    .read_bytes(entry, CASE1_PATTERN_LEN)
                    .expect("patched prologue readable")
                    .to_vec();
                abom.rollback(&mut image, entry, &patched, &original)
                    .expect("rollback of a fresh patch succeeds");
                report.rolled_back += 1;
                report.demoted += demotable;
            }
            PatchOutcome::Patched(_) | PatchOutcome::AlreadyPatched => {
                report.patched += 1;
            }
            // ABOM itself refused (unrecognized, disabled, …): the site
            // keeps trapping, so it counts as demoted too.
            _ => {
                report.demoted += demotable;
            }
        }
    }
    report.abom = *abom.stats();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::plan::FaultRates;

    #[test]
    fn disabled_plan_patches_everything() {
        let mut plan = FaultPlan::disabled(1);
        let report = warm_up(&mut plan, 32);
        assert_eq!(report.patched, 32);
        assert_eq!(report.demoted, 0);
        assert_eq!(report.rolled_back, 0);
        assert_eq!(report.abom.patched_case1, 32);
    }

    #[test]
    fn injected_failures_demote_to_trap_route() {
        let rates = FaultRates::disabled()
            .with_rate(FaultKind::VerifyReject, 0.5)
            .with_rate(FaultKind::PatchFail, 0.5);
        let mut plan = FaultPlan::new(7, rates);
        let report = warm_up(&mut plan, 64);
        assert!(report.verify_rejected > 0, "veto stream must fire");
        assert!(report.rolled_back > 0, "rollback stream must fire");
        assert_eq!(
            report.demoted,
            report.verify_rejected + report.rolled_back,
            "every failed site is demoted exactly once"
        );
        assert_eq!(report.patched + report.demoted, 64);
        assert_eq!(report.abom.rolled_back, report.rolled_back);
    }

    #[test]
    fn warm_up_is_deterministic() {
        let rates = FaultRates::scaled(0.2);
        let run = |seed| warm_up(&mut FaultPlan::new(seed, rates), 48);
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
