//! The UnixBench microbenchmark suite (§5.4, Figures 4 and 5).
//!
//! Each benchmark reports a *score* in iterations per second of simulated
//! time; the figure harnesses normalize scores to patched Docker exactly
//! as the paper does. Each score is a closed form: one iteration's cost,
//! composed from the platform model's primitives (§5.4 explains each bar
//! by the crossings one iteration makes), times the iteration count,
//! adjusted once for the environment.

use xc_runtimes::platform::Platform;
use xc_sim::cost::CostModel;

/// System Call: syscalls per iteration (dup, close, getpid, getuid, umask).
const CALLS_PER_ITERATION: u64 = 5;
/// Execl: resident pages of the benchmark binary being re-exec'd.
const EXECL_IMAGE_PAGES: u64 = 150;
/// Execl: syscalls performed while loading the image (ELF headers,
/// `mmap`s, dynamic-linker `openat`/`read`/`close` storms).
const EXECL_LOADER_SYSCALLS: u64 = 140;
/// File Copy: copy buffer size (the paper's 1 KB variant).
const COPY_BUFFER: u64 = 1024;
/// File Copy: size of the file shuttled per measured pass.
const COPY_FILE_SIZE: u64 = 64 * 1024;
/// Pipe Throughput: payload per write/read pair (UnixBench uses 512 bytes).
const PIPE_PAYLOAD: u64 = 512;
/// Pipe Throughput: iterations measured per score.
const PIPE_ITERATIONS: u64 = 1_000;
/// Context Switching: token size (UnixBench spopen-style ping-pong).
const SWITCH_TOKEN: u64 = 4;
/// Context Switching: round trips measured per score.
const SWITCH_ROUND_TRIPS: u64 = 1_000;
/// Process Creation: resident pages of the forking benchmark process.
const FORK_PAGES: u64 = 500;
/// Process Creation: forks measured per score.
const FORKS: u64 = 200;

/// UnixBench **System Call** (Figure 4's own panel): iterations per
/// second on `platform`.
///
/// "The System Call benchmark tests the speed of issuing a series of
/// nonblocking system calls, including dup, close, getpid, getuid, and
/// umask" (§5.4). One iteration is five trivial syscalls plus loop
/// overhead. All five wrappers are glibc-style `mov`+`syscall` pairs, so
/// on X-Containers every site is ABOM-patched after the first pass
/// (steady state measured, as in the paper's multi-second runs).
pub fn syscall_score(platform: &Platform, costs: &CostModel) -> f64 {
    let dispatch = platform.syscall_cost(costs);
    let per_call = dispatch + costs.syscall_body;
    let per_iteration =
        platform.environment_adjust(per_call * CALLS_PER_ITERATION + costs.loop_iteration);
    1.0 / per_iteration.as_secs_f64()
}

/// The Figure 5 benchmark set (System Call is Figure 4's own panel,
/// [`syscall_score`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MicroBench {
    /// UnixBench Execl: "the speed of the exec system call, which
    /// overlays a new binary on the current process" (§5.4), dominated by
    /// the loader's syscall storm plus the page-table rebuild.
    Execl,
    /// UnixBench File Copy with a 1 KiB buffer: per iteration a `read`
    /// of 1 KiB from a source file and a `write` to a destination file,
    /// each paying a VFS traversal plus a page-cache copy per KiB.
    FileCopy,
    /// UnixBench Pipe Throughput: "a single process reading and writing
    /// in a pipe" (§5.4), 512-byte writes read straight back, with no
    /// context switch.
    PipeThroughput,
    /// UnixBench Pipe-based Context Switching: "two processes
    /// communicating with a pipe" (§5.4), where X-Containers lose to
    /// Docker because page-table installation crosses into the X-Kernel.
    ContextSwitching,
    /// UnixBench Process Creation: fork, immediate child exit and parent
    /// wait, dominated by address-space construction; the other benchmark
    /// X-Containers lose, since the X-Kernel validates every PTE update.
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
            MicroBench::Execl => {
                // `execl` iterations per second.
                let per_exec = platform.environment_adjust(platform.exec_cost(
                    costs,
                    EXECL_IMAGE_PAGES,
                    EXECL_LOADER_SYSCALLS,
                ));
                1.0 / per_exec.as_secs_f64()
            }
            MicroBench::FileCopy => {
                // Copy iterations (1 KiB read+write pairs) per second: the
                // platform sets the dispatch cost of each call and the
                // multiplier on the in-kernel work.
                let iterations = COPY_FILE_SIZE / COPY_BUFFER;
                let vfs_call = costs.vfs_op + costs.page_cache_per_kb * COPY_BUFFER.div_ceil(1024);
                let per_iteration = platform.syscall_cost(costs) * 2
                    + (vfs_call * 2).scale(platform.kernel_ops_multiplier());
                let total = platform.environment_adjust(per_iteration * iterations);
                iterations as f64 / total.as_secs_f64()
            }
            MicroBench::PipeThroughput => {
                // Write+read pairs per second: two syscalls and two small
                // copies per iteration.
                let pipe_call = costs.pipe_op + costs.copy_bytes(PIPE_PAYLOAD);
                let per_iteration = platform.syscall_cost(costs) * 2
                    + (pipe_call * 2).scale(platform.kernel_ops_multiplier());
                let total = platform.environment_adjust(per_iteration * PIPE_ITERATIONS);
                PIPE_ITERATIONS as f64 / total.as_secs_f64()
            }
            MicroBench::ContextSwitching => {
                // Round trips per second. A round trip is four pipe
                // syscalls (each side writes the token and reads the
                // reply) and two switches, with two processes alive; the
                // pipe work pays no kernel multiplier.
                let pipe_call =
                    platform.syscall_cost(costs) + costs.pipe_op + costs.copy_bytes(SWITCH_TOKEN);
                let per_round_trip = pipe_call * 4 + platform.context_switch_cost(costs, 2) * 2;
                let total = platform.environment_adjust(per_round_trip * SWITCH_ROUND_TRIPS);
                SWITCH_ROUND_TRIPS as f64 / total.as_secs_f64()
            }
            MicroBench::ProcessCreation => {
                // fork+exit pairs per second: the `fork` and `wait`
                // syscalls, the platform's fork of a `FORK_PAGES`
                // process, and the child's teardown.
                let per_fork = platform.syscall_cost(costs) * 2
                    + platform.fork_cost(costs, FORK_PAGES)
                    + costs.process_teardown;
                let total = platform.environment_adjust(per_fork * FORKS);
                FORKS as f64 / total.as_secs_f64()
            }
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

    // ---- System Call (Figure 4)

    #[test]
    fn x_container_headline_ratio() {
        // "up to 27× higher raw system call throughput compared to Docker
        // containers" (abstract) — accept the 15–45× band.
        let costs = CostModel::skylake_cloud();
        for cloud in [CloudEnv::AmazonEc2, CloudEnv::GoogleGce] {
            let docker = syscall_score(&Platform::docker(cloud, true), &costs);
            let xc = syscall_score(&Platform::x_container(cloud, true), &costs);
            let ratio = xc / docker;
            assert!((15.0..45.0).contains(&ratio), "{cloud:?}: ratio {ratio}");
        }
    }

    #[test]
    fn gvisor_at_single_digit_percent() {
        let costs = CostModel::skylake_cloud();
        let docker = syscall_score(&Platform::docker(CloudEnv::AmazonEc2, true), &costs);
        let gv = syscall_score(&Platform::gvisor(CloudEnv::AmazonEc2, true), &costs);
        let frac = gv / docker;
        assert!((0.03..0.15).contains(&frac), "gVisor fraction {frac}");
    }

    #[test]
    fn xen_container_below_docker() {
        let costs = CostModel::skylake_cloud();
        let docker = syscall_score(&Platform::docker(CloudEnv::AmazonEc2, true), &costs);
        let xen = syscall_score(&Platform::xen_container(CloudEnv::AmazonEc2, true), &costs);
        assert!(xen < docker);
    }

    #[test]
    fn patch_hurts_docker_not_x() {
        let costs = CostModel::skylake_cloud();
        let cloud = CloudEnv::GoogleGce;
        let d_p = syscall_score(&Platform::docker(cloud, true), &costs);
        let d_u = syscall_score(&Platform::docker(cloud, false), &costs);
        assert!(d_u > d_p * 1.5);
        let x_p = syscall_score(&Platform::x_container(cloud, true), &costs);
        let x_u = syscall_score(&Platform::x_container(cloud, false), &costs);
        assert_eq!(x_p, x_u);
    }

    // ---- Execl

    #[test]
    fn x_container_wins_execl() {
        let costs = CostModel::skylake_cloud();
        let execl = |p: Platform| MicroBench::Execl.score(&p, &costs);
        let rel = execl(Platform::x_container(CloudEnv::AmazonEc2, true))
            / execl(Platform::docker(CloudEnv::AmazonEc2, true));
        assert!((1.05..3.0).contains(&rel), "execl relative {rel}");
    }

    #[test]
    fn gvisor_execl_collapses() {
        let costs = CostModel::skylake_cloud();
        let execl = |p: Platform| MicroBench::Execl.score(&p, &costs);
        let docker = execl(Platform::docker(CloudEnv::AmazonEc2, true));
        let gv = execl(Platform::gvisor(CloudEnv::AmazonEc2, true));
        assert!(gv < docker * 0.5);
    }

    #[test]
    fn unpatched_docker_faster() {
        let costs = CostModel::skylake_cloud();
        let execl = |p: Platform| MicroBench::Execl.score(&p, &costs);
        let p = execl(Platform::docker(CloudEnv::AmazonEc2, true));
        let u = execl(Platform::docker(CloudEnv::AmazonEc2, false));
        assert!(u > p);
    }

    // ---- File Copy

    #[test]
    fn x_container_wins_file_copy() {
        let costs = CostModel::skylake_cloud();
        let copy = |p: Platform| MicroBench::FileCopy.score(&p, &costs);
        let rel = copy(Platform::x_container(CloudEnv::AmazonEc2, true))
            / copy(Platform::docker(CloudEnv::AmazonEc2, true));
        assert!((1.5..4.5).contains(&rel), "file copy relative {rel}");
    }

    #[test]
    fn xen_container_slowest_of_vm_family() {
        let costs = CostModel::skylake_cloud();
        let copy = |p: Platform| MicroBench::FileCopy.score(&p, &costs);
        let xen = copy(Platform::xen_container(CloudEnv::AmazonEc2, true));
        let docker = copy(Platform::docker(CloudEnv::AmazonEc2, true));
        assert!(xen < docker);
    }

    #[test]
    fn score_is_deterministic() {
        let costs = CostModel::skylake_cloud();
        let p = Platform::docker(CloudEnv::GoogleGce, false);
        assert_eq!(
            MicroBench::FileCopy.score(&p, &costs),
            MicroBench::FileCopy.score(&p, &costs)
        );
    }

    // ---- Pipe Throughput

    #[test]
    fn x_container_wins_pipe() {
        let costs = CostModel::skylake_cloud();
        let pipe = |p: Platform| MicroBench::PipeThroughput.score(&p, &costs);
        let rel = pipe(Platform::x_container(CloudEnv::AmazonEc2, true))
            / pipe(Platform::docker(CloudEnv::AmazonEc2, true));
        assert!((1.5..5.0).contains(&rel), "pipe relative {rel}");
    }

    #[test]
    fn gvisor_pipe_collapses() {
        let costs = CostModel::skylake_cloud();
        let pipe = |p: Platform| MicroBench::PipeThroughput.score(&p, &costs);
        let docker = pipe(Platform::docker(CloudEnv::AmazonEc2, true));
        let gv = pipe(Platform::gvisor(CloudEnv::AmazonEc2, true));
        assert!(gv < docker * 0.2);
    }

    // ---- Context Switching

    #[test]
    fn x_container_loses_context_switching() {
        // §5.4: page-table operations must be done in the X-Kernel.
        let costs = CostModel::skylake_cloud();
        let switch = |p: Platform| MicroBench::ContextSwitching.score(&p, &costs);
        let rel = switch(Platform::x_container(CloudEnv::AmazonEc2, true))
            / switch(Platform::docker(CloudEnv::AmazonEc2, true));
        assert!((0.4..1.0).contains(&rel), "ctx switch relative {rel}");
    }

    #[test]
    fn unpatched_docker_fastest() {
        let costs = CostModel::skylake_cloud();
        let switch = |p: Platform| MicroBench::ContextSwitching.score(&p, &costs);
        let patched = switch(Platform::docker(CloudEnv::AmazonEc2, true));
        let unpatched = switch(Platform::docker(CloudEnv::AmazonEc2, false));
        assert!(unpatched > patched);
    }

    #[test]
    fn pv_worst_of_the_vm_family() {
        let costs = CostModel::skylake_cloud();
        let switch = |p: Platform| MicroBench::ContextSwitching.score(&p, &costs);
        let xen = switch(Platform::xen_container(CloudEnv::AmazonEc2, true));
        let xc = switch(Platform::x_container(CloudEnv::AmazonEc2, true));
        assert!(
            xen < xc,
            "full-flush PV switches must trail global-bit X switches"
        );
    }

    // ---- Process Creation

    #[test]
    fn x_container_loses_process_creation() {
        let costs = CostModel::skylake_cloud();
        let spawn = |p: Platform| MicroBench::ProcessCreation.score(&p, &costs);
        let rel = spawn(Platform::x_container(CloudEnv::AmazonEc2, true))
            / spawn(Platform::docker(CloudEnv::AmazonEc2, true));
        assert!((0.3..1.0).contains(&rel), "process creation relative {rel}");
    }

    #[test]
    fn gvisor_process_creation_collapses() {
        let costs = CostModel::skylake_cloud();
        let spawn = |p: Platform| MicroBench::ProcessCreation.score(&p, &costs);
        let docker = spawn(Platform::docker(CloudEnv::AmazonEc2, true));
        let gv = spawn(Platform::gvisor(CloudEnv::AmazonEc2, true));
        assert!(gv < docker * 0.4);
    }
}
