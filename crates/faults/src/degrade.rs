//! Graceful degradation of the ABOM fast path.
//!
//! §4.4's safety story: every patched site keeps the `syscall` trap as a
//! correct fallback. This module exercises it under injected failure —
//! during a warm-up pass over a corpus of glibc-style wrappers, one per
//! syscall number, the plan can veto a site's verification
//! ([`FaultKind::VerifyReject`], the site is never patched) or fail a
//! patch after the fact ([`FaultKind::PatchFail`]). Either way the site is
//! permanently demoted to the forwarded/trap route; it costs more per
//! syscall but never computes wrongly. The chaos world converts the
//! demoted fraction into a per-request syscall surcharge.
//!
//! The pass is a closed form: ABOM patches a case-1 wrapper for number
//! `nr` exactly when the vsyscall table has an entry for it
//! (`nr <= MAX_SYSCALL_NR`), so the pass assembles and patches nothing.
//! It draws the plan's decisions in the order a patching pass would and
//! counts the outcomes; the unit tests compare it with that pass.

use xc_abom::table::MAX_SYSCALL_NR;

use crate::plan::{FaultKind, FaultPlan};

/// Outcome of one warm-up pass over the wrapper corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmupReport {
    /// Sites visited (syscall numbers `0..sites`).
    pub sites: u64,
    /// Sites left patched on the function-call fast path.
    pub patched: u64,
    /// Sites whose verification was vetoed (never patched).
    pub verify_rejected: u64,
    /// Sites patched and then failed by an injected post-patch fault.
    pub patch_failed: u64,
    /// Sites demoted to the fallback route (vetoed or failed), counting
    /// only numbers with a vsyscall entry: the rest never left the
    /// fallback.
    pub demoted: u64,
}

/// Warms ABOM up over a corpus of `sites` glibc-style wrappers (one per
/// syscall number), injecting verification vetoes and patch failures
/// from `plan`, and demotes every site that cannot stay on the
/// function-call path.
///
/// Deterministic: every site draws from the plan's
/// [`FaultKind::VerifyReject`] stream, and every site ABOM patches (one
/// with a vsyscall entry) then draws from [`FaultKind::PatchFail`], in
/// site order. With a disabled plan every site with an entry ends up
/// patched and nothing is demoted.
pub fn warm_up(plan: &mut FaultPlan, sites: u64) -> WarmupReport {
    let mut report = WarmupReport {
        sites,
        patched: 0,
        verify_rejected: 0,
        patch_failed: 0,
        demoted: 0,
    };
    for nr in 0..sites {
        // Each number is visited once, so leaving the function-call path
        // demotes it exactly when it had a vsyscall entry to leave.
        let has_entry = nr <= MAX_SYSCALL_NR;
        if plan.should_inject(FaultKind::VerifyReject) {
            report.verify_rejected += 1;
            report.demoted += u64::from(has_entry);
        } else if has_entry {
            if plan.should_inject(FaultKind::PatchFail) {
                report.patch_failed += 1;
                report.demoted += 1;
            } else {
                report.patched += 1;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use xc_abom::binaries::glibc_wrapper_image;
    use xc_abom::patcher::{Abom, PatchOutcome};
    use xc_abom::table::entry_for_number;

    use super::*;
    use crate::plan::FaultRates;

    /// Offset of the `syscall` instruction inside the case-1 wrapper.
    const CASE1_SYSCALL_OFFSET: u64 = 5;

    /// The warm-up as a patching pass, the reference [`warm_up`] must
    /// match: assemble each wrapper, let ABOM handle its trap, and draw a
    /// post-patch failure only for a site ABOM patched.
    fn patching_pass(plan: &mut FaultPlan, sites: u64) -> WarmupReport {
        let mut abom = Abom::new();
        let mut report = WarmupReport {
            sites,
            patched: 0,
            verify_rejected: 0,
            patch_failed: 0,
            demoted: 0,
        };
        for nr in 0..sites {
            let demotable = u64::from(entry_for_number(nr).is_some());
            if plan.should_inject(FaultKind::VerifyReject) {
                report.verify_rejected += 1;
                report.demoted += demotable;
                continue;
            }
            let mut image = glibc_wrapper_image(nr);
            let entry = image.symbol("wrapper").expect("wrapper symbol exists");
            match abom.on_syscall_trap(&mut image, entry + CASE1_SYSCALL_OFFSET) {
                PatchOutcome::Patched(_) if plan.should_inject(FaultKind::PatchFail) => {
                    report.patch_failed += 1;
                    report.demoted += demotable;
                }
                PatchOutcome::Patched(_) | PatchOutcome::AlreadyPatched => {
                    report.patched += 1;
                }
                // ABOM itself refused: the site keeps trapping.
                _ => {
                    report.demoted += demotable;
                }
            }
        }
        report
    }

    #[test]
    fn disabled_plan_patches_everything() {
        let mut plan = FaultPlan::disabled(1);
        let report = warm_up(&mut plan, 32);
        assert_eq!(report.patched, 32);
        assert_eq!(report.demoted, 0);
        assert_eq!(report.patch_failed, 0);
    }

    #[test]
    fn injected_failures_demote_to_trap_route() {
        let rates = FaultRates::disabled()
            .with_rate(FaultKind::VerifyReject, 0.5)
            .with_rate(FaultKind::PatchFail, 0.5);
        let mut plan = FaultPlan::new(7, rates);
        let report = warm_up(&mut plan, 64);
        assert!(report.verify_rejected > 0, "veto stream must fire");
        assert!(report.patch_failed > 0, "patch-failure stream must fire");
        assert_eq!(
            report.demoted,
            report.verify_rejected + report.patch_failed,
            "every failed site is demoted exactly once"
        );
        assert_eq!(report.patched + report.demoted, 64);
    }

    #[test]
    fn warm_up_is_deterministic() {
        let rates = FaultRates::scaled(0.2);
        let run = |seed| warm_up(&mut FaultPlan::new(seed, rates), 48);
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    proptest! {
        /// Any seed, rates and corpus size, including numbers past the
        /// vsyscall table, give the patching pass's report and leave the
        /// plan's counters where the patching pass leaves them.
        #[test]
        fn closed_form_matches_the_patching_pass(
            seed in any::<u64>(),
            verify_reject in 0.0f64..1.0,
            patch_fail in 0.0f64..1.0,
            sites in 0u64..=400,
        ) {
            let rates = FaultRates::disabled()
                .with_rate(FaultKind::VerifyReject, verify_reject)
                .with_rate(FaultKind::PatchFail, patch_fail);
            let mut closed = FaultPlan::new(seed, rates);
            let mut reference = closed.clone();
            prop_assert_eq!(warm_up(&mut closed, sites), patching_pass(&mut reference, sites));
            prop_assert_eq!(closed.stats(), reference.stats());
        }
    }
}
