//! ABOM and syscall-dispatch statistics.
//!
//! §5.2 of the paper: "we added a counter in the X-Kernel to calculate how
//! many system calls were forwarded to X-LibOS" — the syscall-reduction
//! percentages of Table 1 are exactly `1 − forwarded/total`. This module is
//! that counter.

use std::fmt;

/// Counters kept by the X-Kernel/X-LibOS pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AbomStats {
    /// Syscalls that arrived via the `syscall` instruction (trapped into
    /// the X-Kernel and forwarded to X-LibOS).
    pub trapped: u64,
    /// Syscalls that arrived as function calls through the vsyscall table.
    pub via_function_call: u64,
    /// Sites patched with the 7-byte case-1 replacement.
    pub patched_case1: u64,
    /// Sites patched with the 7-byte case-2 (stack-dispatch) replacement.
    pub patched_case2: u64,
    /// Sites patched with the 9-byte two-phase replacement.
    pub patched_case3: u64,
    /// Trapped syscalls whose surrounding bytes matched no pattern.
    pub unrecognized: u64,
    /// Invalid-opcode traps repaired by the jump-into-the-middle fixer.
    pub ud_fixups: u64,
    /// Return addresses adjusted by the X-LibOS handler (9-byte phase-1/2
    /// leftovers skipped).
    pub return_fixups: u64,
    /// Sites refused by pre-flight static verification (only non-zero
    /// with `AbomConfig::preflight_verify`).
    pub verify_rejected: u64,
    /// Pre-flight lookups served by the memoized analysis cache (only
    /// non-zero with `AbomConfig::preflight_verify`).
    pub verify_cache_hits: u64,
    /// Pre-flight lookups that ran the full static-analysis pipeline.
    pub verify_cache_misses: u64,
}

impl AbomStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        AbomStats::default()
    }

    /// Total syscalls observed by either path.
    pub fn total_syscalls(&self) -> u64 {
        self.trapped + self.via_function_call
    }

    /// Total sites patched.
    pub fn patched_sites(&self) -> u64 {
        self.patched_case1 + self.patched_case2 + self.patched_case3
    }

    /// Fraction of syscall invocations that avoided the trap, in percent —
    /// the "Syscall Reduction" column of Table 1.
    ///
    /// Returns 0 when no syscalls were observed.
    pub fn reduction_percent(&self) -> f64 {
        let total = self.total_syscalls();
        if total == 0 {
            0.0
        } else {
            100.0 * self.via_function_call as f64 / total as f64
        }
    }
}

impl fmt::Display for AbomStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "syscalls: {} trapped, {} via function call ({:.2}% reduction); \
             sites patched: {} (c1={}, c2={}, c3={}), unrecognized traps: {}",
            self.trapped,
            self.via_function_call,
            self.reduction_percent(),
            self.patched_sites(),
            self.patched_case1,
            self.patched_case2,
            self.patched_case3,
            self.unrecognized,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_math() {
        let mut s = AbomStats::new();
        assert_eq!(s.reduction_percent(), 0.0);
        s.trapped = 10;
        s.via_function_call = 990;
        assert!((s.reduction_percent() - 99.0).abs() < 1e-12);
        assert_eq!(s.total_syscalls(), 1000);
    }

    #[test]
    fn display_mentions_reduction() {
        let s = AbomStats {
            trapped: 1,
            via_function_call: 1,
            ..AbomStats::new()
        };
        assert!(s.to_string().contains("50.00%"));
    }
}
