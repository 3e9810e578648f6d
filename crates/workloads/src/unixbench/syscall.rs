//! UnixBench **System Call** (Figure 4).
//!
//! "The System Call benchmark tests the speed of issuing a series of
//! nonblocking system calls, including dup, close, getpid, getuid, and
//! umask" (§5.4). One iteration = five trivial syscalls plus loop
//! overhead; the score is iterations per second.

use xc_runtimes::platform::Platform;
use xc_sim::cost::CostModel;

/// Syscalls per benchmark iteration (dup, close, getpid, getuid, umask).
pub const CALLS_PER_ITERATION: u64 = 5;

/// The System Call benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemCallBench;

impl SystemCallBench {
    /// Iterations per second on `platform`. All five wrappers are
    /// glibc-style `mov`+`syscall` pairs, so on X-Containers every site is
    /// ABOM-patched after the first pass (steady state measured, as in
    /// the paper's multi-second runs).
    pub fn score(platform: &Platform, costs: &CostModel) -> f64 {
        let dispatch = platform.syscall_cost(costs);
        let per_call = dispatch + costs.syscall_body;
        let per_iteration =
            platform.environment_adjust(per_call * CALLS_PER_ITERATION + costs.loop_iteration);
        1.0 / per_iteration.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xc_runtimes::cloud::CloudEnv;

    #[test]
    fn x_container_headline_ratio() {
        // "up to 27× higher raw system call throughput compared to Docker
        // containers" (abstract) — accept the 15–45× band.
        let costs = CostModel::skylake_cloud();
        for cloud in [CloudEnv::AmazonEc2, CloudEnv::GoogleGce] {
            let docker = SystemCallBench::score(&Platform::docker(cloud, true), &costs);
            let xc = SystemCallBench::score(&Platform::x_container(cloud, true), &costs);
            let ratio = xc / docker;
            assert!((15.0..45.0).contains(&ratio), "{cloud:?}: ratio {ratio}");
        }
    }

    #[test]
    fn gvisor_at_single_digit_percent() {
        let costs = CostModel::skylake_cloud();
        let docker = SystemCallBench::score(&Platform::docker(CloudEnv::AmazonEc2, true), &costs);
        let gv = SystemCallBench::score(&Platform::gvisor(CloudEnv::AmazonEc2, true), &costs);
        let frac = gv / docker;
        assert!((0.03..0.15).contains(&frac), "gVisor fraction {frac}");
    }

    #[test]
    fn xen_container_below_docker() {
        let costs = CostModel::skylake_cloud();
        let docker = SystemCallBench::score(&Platform::docker(CloudEnv::AmazonEc2, true), &costs);
        let xen =
            SystemCallBench::score(&Platform::xen_container(CloudEnv::AmazonEc2, true), &costs);
        assert!(xen < docker);
    }

    #[test]
    fn patch_hurts_docker_not_x() {
        let costs = CostModel::skylake_cloud();
        let cloud = CloudEnv::GoogleGce;
        let d_p = SystemCallBench::score(&Platform::docker(cloud, true), &costs);
        let d_u = SystemCallBench::score(&Platform::docker(cloud, false), &costs);
        assert!(d_u > d_p * 1.5);
        let x_p = SystemCallBench::score(&Platform::x_container(cloud, true), &costs);
        let x_u = SystemCallBench::score(&Platform::x_container(cloud, false), &costs);
        assert_eq!(x_p, x_u);
    }
}
