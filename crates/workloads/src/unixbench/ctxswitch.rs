//! UnixBench **Context Switching** (Figure 5).
//!
//! "The Context Switching benchmark tests the speed of two processes
//! communicating with a pipe" (§5.4): a token bounces between two
//! processes through a pipe pair, forcing two process context switches
//! per round trip — the benchmark where X-Containers *lose* to Docker
//! because page-table installation must cross into the X-Kernel.

use xc_runtimes::platform::Platform;
use xc_sim::cost::CostModel;

/// Token size (UnixBench spopen-style ping-pong).
pub const TOKEN: usize = 4;
/// Round trips measured per score call.
pub const ROUND_TRIPS: u64 = 1_000;

/// The Context Switching benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContextSwitchBench;

impl ContextSwitchBench {
    /// Round trips per second. A round trip is four pipe syscalls (each
    /// side writes the token and reads the reply) and two switches, with
    /// two processes alive; the pipe work pays no kernel multiplier.
    pub fn score(platform: &Platform, costs: &CostModel) -> f64 {
        let pipe_call =
            platform.syscall_cost(costs) + costs.pipe_op + costs.copy_bytes(TOKEN as u64);
        let per_round_trip = pipe_call * 4 + platform.context_switch_cost(costs, 2) * 2;
        let total = platform.environment_adjust(per_round_trip * ROUND_TRIPS);
        ROUND_TRIPS as f64 / total.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xc_runtimes::cloud::CloudEnv;

    #[test]
    fn x_container_loses_context_switching() {
        // §5.4: page-table operations must be done in the X-Kernel.
        let costs = CostModel::skylake_cloud();
        let docker =
            ContextSwitchBench::score(&Platform::docker(CloudEnv::AmazonEc2, true), &costs);
        let xc =
            ContextSwitchBench::score(&Platform::x_container(CloudEnv::AmazonEc2, true), &costs);
        let rel = xc / docker;
        assert!((0.4..1.0).contains(&rel), "ctx switch relative {rel}");
    }

    #[test]
    fn unpatched_docker_fastest() {
        let costs = CostModel::skylake_cloud();
        let patched =
            ContextSwitchBench::score(&Platform::docker(CloudEnv::AmazonEc2, true), &costs);
        let unpatched =
            ContextSwitchBench::score(&Platform::docker(CloudEnv::AmazonEc2, false), &costs);
        assert!(unpatched > patched);
    }

    #[test]
    fn pv_worst_of_the_vm_family() {
        let costs = CostModel::skylake_cloud();
        let xen =
            ContextSwitchBench::score(&Platform::xen_container(CloudEnv::AmazonEc2, true), &costs);
        let xc =
            ContextSwitchBench::score(&Platform::x_container(CloudEnv::AmazonEc2, true), &costs);
        assert!(
            xen < xc,
            "full-flush PV switches must trail global-bit X switches"
        );
    }
}
