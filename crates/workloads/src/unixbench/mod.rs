//! The UnixBench microbenchmark suite (§5.4, Figures 4 and 5).
//!
//! Each benchmark reports a *score* in iterations per second of simulated
//! time; the figure harnesses normalize scores to patched Docker exactly
//! as the paper does. Each score is a closed form: one iteration's cost,
//! composed from the platform model's primitives (§5.4 explains each bar
//! by the crossings one iteration makes), times the iteration count,
//! adjusted once for the environment.

mod ctxswitch;
mod execl;
mod filecopy;
mod pipe;
mod spawn;
mod syscall;

pub use ctxswitch::ContextSwitchBench;
pub use execl::ExeclBench;
pub use filecopy::FileCopyBench;
pub use pipe::PipeThroughputBench;
pub use spawn::ProcessCreationBench;
pub use syscall::SystemCallBench;

use xc_runtimes::platform::Platform;
use xc_sim::cost::CostModel;

/// The Figure 5 benchmark set (System Call is Figure 4's own panel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MicroBench {
    /// UnixBench Execl.
    Execl,
    /// UnixBench File Copy (1 KiB buffer).
    FileCopy,
    /// UnixBench Pipe Throughput.
    PipeThroughput,
    /// UnixBench Pipe-based Context Switching.
    ContextSwitching,
    /// UnixBench Process Creation.
    ProcessCreation,
}

impl MicroBench {
    /// All Figure 5 benchmarks, in figure order.
    pub const ALL: [MicroBench; 5] = [
        MicroBench::Execl,
        MicroBench::FileCopy,
        MicroBench::PipeThroughput,
        MicroBench::ContextSwitching,
        MicroBench::ProcessCreation,
    ];

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            MicroBench::Execl => "Execl",
            MicroBench::FileCopy => "File Copy",
            MicroBench::PipeThroughput => "Pipe Throughput",
            MicroBench::ContextSwitching => "Context Switching",
            MicroBench::ProcessCreation => "Process Creation",
        }
    }

    /// Runs the benchmark on a platform, returning its score
    /// (iterations/second; higher is better).
    pub fn score(self, platform: &Platform, costs: &CostModel) -> f64 {
        match self {
            MicroBench::Execl => ExeclBench::score(platform, costs),
            MicroBench::FileCopy => FileCopyBench::score(platform, costs),
            MicroBench::PipeThroughput => PipeThroughputBench::score(platform, costs),
            MicroBench::ContextSwitching => ContextSwitchBench::score(platform, costs),
            MicroBench::ProcessCreation => ProcessCreationBench::score(platform, costs),
        }
    }
}

/// Concurrency scaling for the "concurrent" panels: the paper runs 4
/// copies simultaneously on 4 cores / 8 threads, so per-copy scores hold
/// roughly steady for multicore-capable platforms and collapse for
/// single-core ones.
pub fn concurrent_score(single: f64, platform: &Platform, copies: u32) -> f64 {
    if platform.supports_multicore() {
        // Mild SMT/cache contention at 4 copies on 4 physical cores.
        single * f64::from(copies) * 0.88
    } else {
        // Serialized: the copies time-share one logical CPU.
        single
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xc_runtimes::cloud::CloudEnv;
    use xc_sim::fnv::{fnv1a_u64, FNV_OFFSET};

    #[test]
    fn all_benches_produce_positive_scores() {
        let costs = CostModel::skylake_cloud();
        for platform in Platform::cloud_configurations(CloudEnv::GoogleGce) {
            for bench in MicroBench::ALL {
                let s = bench.score(&platform, &costs);
                assert!(s > 0.0, "{} on {} gave {s}", bench.label(), platform.name());
            }
        }
    }

    #[test]
    fn figure5_shape_for_x_container() {
        // §5.4: X wins File Copy / Pipe / Execl, loses Context Switching
        // and Process Creation.
        let costs = CostModel::skylake_cloud();
        let docker = Platform::docker(CloudEnv::AmazonEc2, true);
        let xc = Platform::x_container(CloudEnv::AmazonEc2, true);
        let rel = |b: MicroBench| b.score(&xc, &costs) / b.score(&docker, &costs);

        assert!(
            rel(MicroBench::Execl) > 1.0,
            "execl {}",
            rel(MicroBench::Execl)
        );
        assert!(
            rel(MicroBench::FileCopy) > 1.5,
            "filecopy {}",
            rel(MicroBench::FileCopy)
        );
        assert!(
            rel(MicroBench::PipeThroughput) > 1.5,
            "pipe {}",
            rel(MicroBench::PipeThroughput)
        );
        assert!(
            rel(MicroBench::ContextSwitching) < 1.0,
            "ctxswitch {}",
            rel(MicroBench::ContextSwitching)
        );
        assert!(
            rel(MicroBench::ProcessCreation) < 1.0,
            "spawn {}",
            rel(MicroBench::ProcessCreation)
        );
    }

    #[test]
    fn scores_are_pinned() {
        // The golden rows print these scores as ratios to two decimals;
        // this digest pins every platform's score to the last bit.
        let costs = CostModel::skylake_cloud();
        let mut digest = FNV_OFFSET;
        for cloud in CloudEnv::ALL {
            let mut platforms = Platform::cloud_configurations(cloud);
            platforms.push(Platform::x_container_no_abom(cloud, true));
            platforms.push(Platform::graphene(cloud));
            platforms.push(Platform::unikernel(cloud));
            for platform in &platforms {
                for bench in MicroBench::ALL {
                    digest = fnv1a_u64(digest, bench.score(platform, &costs).to_bits());
                }
            }
        }
        assert_eq!(digest, 0x32c4_7146_5a33_165f, "got {digest:#x}");
    }

    #[test]
    fn concurrent_panel_scaling() {
        let xc = Platform::x_container(CloudEnv::AmazonEc2, true);
        let gv = Platform::gvisor(CloudEnv::AmazonEc2, true);
        assert!(concurrent_score(100.0, &xc, 4) > 300.0);
        assert_eq!(concurrent_score(100.0, &gv, 4), 100.0);
    }
}
