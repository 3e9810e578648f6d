//! UnixBench **File Copy** with a 1 KiB buffer (Figure 5).
//!
//! Per iteration the benchmark `read`s 1 KiB from a source file and
//! `write`s it to a destination file: two syscalls, each paying a VFS
//! traversal plus a page-cache copy per KiB. The platform determines the
//! dispatch cost of each call and the multiplier on the in-kernel work.

use xc_runtimes::platform::Platform;
use xc_sim::cost::CostModel;

/// Copy buffer size (the paper's 1 KB variant).
pub const BUFFER: usize = 1024;
/// Size of the file shuttled per measured pass.
pub const FILE_SIZE: usize = 64 * 1024;

/// The File Copy benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileCopyBench;

impl FileCopyBench {
    /// Copy iterations (1 KiB read+write pairs) per second.
    pub fn score(platform: &Platform, costs: &CostModel) -> f64 {
        let iterations = (FILE_SIZE / BUFFER) as u64;
        let vfs_call = costs.vfs_op + costs.page_cache_per_kb * (BUFFER as u64).div_ceil(1024);
        let per_iteration = platform.syscall_cost(costs) * 2
            + (vfs_call * 2).scale(platform.kernel_ops_multiplier());
        let total = platform.environment_adjust(per_iteration * iterations);
        iterations as f64 / total.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xc_runtimes::cloud::CloudEnv;

    #[test]
    fn x_container_wins_file_copy() {
        let costs = CostModel::skylake_cloud();
        let docker = FileCopyBench::score(&Platform::docker(CloudEnv::AmazonEc2, true), &costs);
        let xc = FileCopyBench::score(&Platform::x_container(CloudEnv::AmazonEc2, true), &costs);
        let rel = xc / docker;
        assert!((1.5..4.5).contains(&rel), "file copy relative {rel}");
    }

    #[test]
    fn xen_container_slowest_of_vm_family() {
        let costs = CostModel::skylake_cloud();
        let xen = FileCopyBench::score(&Platform::xen_container(CloudEnv::AmazonEc2, true), &costs);
        let docker = FileCopyBench::score(&Platform::docker(CloudEnv::AmazonEc2, true), &costs);
        assert!(xen < docker);
    }

    #[test]
    fn score_is_deterministic() {
        let costs = CostModel::skylake_cloud();
        let p = Platform::docker(CloudEnv::GoogleGce, false);
        assert_eq!(
            FileCopyBench::score(&p, &costs),
            FileCopyBench::score(&p, &costs)
        );
    }
}
