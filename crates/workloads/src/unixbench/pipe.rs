//! UnixBench **Pipe Throughput** (Figure 5).
//!
//! "The Pipe Throughput benchmark measures the throughput of a single
//! process reading and writing in a pipe" (§5.4): 512-byte writes
//! immediately read back — two syscalls and two small copies per
//! iteration, no context switch.

use xc_runtimes::platform::Platform;
use xc_sim::cost::CostModel;

/// Payload per write/read pair (UnixBench uses 512 bytes).
pub const PAYLOAD: usize = 512;
/// Iterations measured per score call.
pub const ITERATIONS: u64 = 1_000;

/// The Pipe Throughput benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipeThroughputBench;

impl PipeThroughputBench {
    /// Write+read pairs per second.
    pub fn score(platform: &Platform, costs: &CostModel) -> f64 {
        let pipe_call = costs.pipe_op + costs.copy_bytes(PAYLOAD as u64);
        let per_iteration = platform.syscall_cost(costs) * 2
            + (pipe_call * 2).scale(platform.kernel_ops_multiplier());
        let total = platform.environment_adjust(per_iteration * ITERATIONS);
        ITERATIONS as f64 / total.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xc_runtimes::cloud::CloudEnv;

    #[test]
    fn x_container_wins_pipe() {
        let costs = CostModel::skylake_cloud();
        let docker =
            PipeThroughputBench::score(&Platform::docker(CloudEnv::AmazonEc2, true), &costs);
        let xc =
            PipeThroughputBench::score(&Platform::x_container(CloudEnv::AmazonEc2, true), &costs);
        let rel = xc / docker;
        assert!((1.5..5.0).contains(&rel), "pipe relative {rel}");
    }

    #[test]
    fn gvisor_pipe_collapses() {
        let costs = CostModel::skylake_cloud();
        let docker =
            PipeThroughputBench::score(&Platform::docker(CloudEnv::AmazonEc2, true), &costs);
        let gv = PipeThroughputBench::score(&Platform::gvisor(CloudEnv::AmazonEc2, true), &costs);
        assert!(gv < docker * 0.2);
    }
}
