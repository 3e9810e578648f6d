//! UnixBench **Process Creation** (Figure 5).
//!
//! "The Process Creation benchmark measures the performance of spawning
//! new processes with the fork system call" (§5.4): fork + immediate
//! child exit + parent wait, dominated by address-space construction —
//! the other benchmark X-Containers lose, since every PTE update is
//! validated by the X-Kernel.

use xc_runtimes::platform::Platform;
use xc_sim::cost::CostModel;

/// Resident pages of the forking benchmark process.
pub const BENCH_PAGES: u64 = 500;
/// Forks measured per score call.
pub const FORKS: u64 = 200;

/// The Process Creation benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessCreationBench;

impl ProcessCreationBench {
    /// fork+exit pairs per second: the `fork` and `wait` syscalls, the
    /// platform's fork of a `BENCH_PAGES` process, and the child's
    /// teardown.
    pub fn score(platform: &Platform, costs: &CostModel) -> f64 {
        let per_fork = platform.syscall_cost(costs) * 2
            + platform.fork_cost(costs, BENCH_PAGES)
            + costs.process_teardown;
        let total = platform.environment_adjust(per_fork * FORKS);
        FORKS as f64 / total.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xc_runtimes::cloud::CloudEnv;

    #[test]
    fn x_container_loses_process_creation() {
        let costs = CostModel::skylake_cloud();
        let docker =
            ProcessCreationBench::score(&Platform::docker(CloudEnv::AmazonEc2, true), &costs);
        let xc =
            ProcessCreationBench::score(&Platform::x_container(CloudEnv::AmazonEc2, true), &costs);
        let rel = xc / docker;
        assert!((0.3..1.0).contains(&rel), "process creation relative {rel}");
    }

    #[test]
    fn gvisor_process_creation_collapses() {
        let costs = CostModel::skylake_cloud();
        let docker =
            ProcessCreationBench::score(&Platform::docker(CloudEnv::AmazonEc2, true), &costs);
        let gv = ProcessCreationBench::score(&Platform::gvisor(CloudEnv::AmazonEc2, true), &costs);
        assert!(gv < docker * 0.4);
    }
}
