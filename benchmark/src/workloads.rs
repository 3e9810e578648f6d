//! The four workloads, built from the layers' public entry points.
//!
//! Each workload is one iteration of a shipped harness's grid, driven
//! through a [`Runner`] and wrapped in spans around every call into a
//! layer. An iteration returns its simulated results rendered as a small
//! table (compared against golden text), a few deterministic simulated
//! counters for the per-layer metrics, and any violated invariant.
//! Simulated statistics are outputs to check, never timing metrics.

use xc_bench::runner::Runner;
use xc_bench::{clouds, platform_matrix};
use xcontainers::abom::binaries::invoke_with;
use xcontainers::abom::offline::{OfflineConfig, OfflinePatcher};
use xcontainers::abom::stats::AbomStats;
use xcontainers::prelude::*;
use xcontainers::verify::{reverify, summarize, VerifierConfig};
use xcontainers::workloads::apps::{figure3_profiles, microservice};
use xcontainers::workloads::table1::{table1_profiles, AppProfile};

use crate::trace::{span, span_by, span_tagged};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop Poisson load over the cluster study's hosts × domains.
    ClusterOpen,
    /// The Figure 3 closed-loop grid behind a fresh result cache.
    ClosedLoop,
    /// The chaos sweep: platforms × fault rates.
    ChaosFaults,
    /// Static verification, offline patching and pre-flight over Table 1.
    VerifyCorpus,
}

/// Workload size: the benchmark runs `Full`; tests use `Quick`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's shape.
    Full,
    /// Small shapes for the equivalence tests.
    Quick,
}

impl Workload {
    /// Every workload, in round-robin order.
    pub const ALL: [Workload; 4] = [
        Workload::ClusterOpen,
        Workload::ClosedLoop,
        Workload::ChaosFaults,
        Workload::VerifyCorpus,
    ];

    /// Command-line and result-file name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ClusterOpen => "cluster_open",
            Workload::ClosedLoop => "closed_loop",
            Workload::ChaosFaults => "chaos_faults",
            Workload::VerifyCorpus => "verify_corpus",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The shipped harness's seed, which the golden files are made with.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::ClusterOpen => 42,
            Workload::ClosedLoop => 7,
            Workload::ChaosFaults | Workload::VerifyCorpus => 2019,
        }
    }

    /// Iterations per timed round, chosen so each workload gets about
    /// 0.3 s of host time per round.
    pub fn per_round(self) -> usize {
        match self {
            Workload::ClusterOpen => 1,
            Workload::ClosedLoop => 3,
            Workload::ChaosFaults | Workload::VerifyCorpus => 5,
        }
    }

    /// The golden table for [`Workload::default_seed`].
    pub fn golden(self) -> &'static str {
        match self {
            Workload::ClusterOpen => include_str!("../golden/cluster_open.txt"),
            Workload::ClosedLoop => include_str!("../golden/closed_loop.txt"),
            Workload::ChaosFaults => include_str!("../golden/chaos_faults.txt"),
            Workload::VerifyCorpus => include_str!("../golden/verify_corpus.txt"),
        }
    }

    /// Runs one iteration.
    pub fn run(self, size: Size, seed: u64, runner: &Runner) -> Outcome {
        match self {
            Workload::ClusterOpen => cluster_open(size, seed, runner),
            Workload::ClosedLoop => closed_loop(size, seed, runner),
            Workload::ChaosFaults => chaos_faults(size, seed, runner),
            Workload::VerifyCorpus => verify_corpus(size, seed, runner),
        }
    }
}

/// What one iteration produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The simulated results as a text table.
    pub table: String,
    /// Deterministic simulated counters, by name (see [`crate::layers`]).
    pub counts: Vec<(&'static str, f64)>,
    /// Violated invariants; empty when the results are consistent.
    pub problems: Vec<String>,
}

impl Outcome {
    /// The counter `name` (0 when the workload has none).
    pub fn count(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

fn render(title: &str, headers: &[&str], rows: Vec<Vec<Cell>>) -> String {
    span("report", "render_into", || {
        let mut table = Table::new(title, headers);
        for row in rows {
            table.row(row);
        }
        let mut out = String::new();
        table.render_into(&mut out);
        out
    })
}

fn int(v: u64) -> Cell {
    Cell::Num(v as f64, 0)
}

// ---------------------------------------------------------------- cluster

/// Host chunks per platform, as in the `cluster_study` harness.
const CLUSTER_CHUNKS: u32 = 16;

/// The cluster grid: (platform × host chunk) cells of `run_cluster_range`.
pub struct ClusterGrid {
    /// Study shape.
    pub params: ClusterParams,
    labels: [&'static str; 4],
    tables: Vec<PlatformCosts>,
    chunks: u32,
}

impl ClusterGrid {
    /// The cluster study's grid (`Quick` is its `--quick` shape) with
    /// the client seed replaced by `seed`.
    pub fn new(size: Size, seed: u64) -> Self {
        let quick = size == Size::Quick;
        let params = ClusterParams {
            hosts: if quick { 8 } else { 120 },
            domains_per_host: if quick { 6 } else { 24 },
            clients: if quick { 40_000 } else { 1_200_000 },
            think_time: Nanos::from_secs(1),
            duration: Nanos::from_millis(if quick { 120 } else { 500 }),
            queue_cap: 64,
            zipf_theta: 0.2,
            host_cores: 16,
            seed,
        };
        let costs = CostModel::skylake_cloud();
        let cloud = CloudEnv::LocalCluster;
        let platforms = span("inputs", "platforms", || {
            [
                ("Docker", Platform::docker(cloud, true)),
                ("Xen-Container", Platform::xen_container(cloud, true)),
                ("X-Container", Platform::x_container(cloud, true)),
                ("gVisor", Platform::gvisor(cloud, true)),
            ]
        });
        let tables = platforms
            .iter()
            .map(|(label, platform)| {
                let server = ServerModel {
                    platform: platform.clone(),
                    profile: microservice(),
                    workers: 1,
                    cores: 1,
                };
                span_tagged("costs", "derive", label, || {
                    PlatformCosts::derive(&server, &costs)
                })
            })
            .collect();
        ClusterGrid {
            chunks: CLUSTER_CHUNKS.min(params.hosts).max(1),
            params,
            labels: platforms.map(|(label, _)| label),
            tables,
        }
    }

    /// Cells in the grid.
    pub fn cells(&self) -> usize {
        self.labels.len() * self.chunks as usize
    }

    /// Runs cell `i`: one platform's contiguous host range.
    pub fn cell(&self, i: usize) -> ClusterResult {
        let chunks = self.chunks as usize;
        let (base, rem) = (
            self.params.hosts / self.chunks,
            self.params.hosts % self.chunks,
        );
        let pi = i / chunks;
        let ci = (i % chunks) as u32;
        let first = ci * base + ci.min(rem);
        let count = base + u32::from(ci < rem);
        span_tagged("cluster", "run_cluster_range", self.labels[pi], || {
            run_cluster_range(&self.tables[pi], &self.params, first, count)
        })
    }
}

fn cluster_open(size: Size, seed: u64, runner: &Runner) -> Outcome {
    let grid = ClusterGrid::new(size, seed);
    let cells = span("runner", "run", || {
        runner.run(grid.cells(), |i| grid.cell(i))
    });
    let merged: Vec<ClusterResult> = span("stats", "merge_many", || {
        cells
            .chunks(grid.chunks as usize)
            .map(|parts| {
                let mut whole = ClusterResult::default();
                whole.merge_many(&parts.iter().collect::<Vec<_>>());
                whole
            })
            .collect()
    });
    let quantiles: Vec<[u64; 3]> = span("stats", "quantile", || {
        merged
            .iter()
            .map(|r| {
                [
                    r.latency.quantile(0.5),
                    r.latency.quantile(0.99),
                    r.latency.quantile(0.999),
                ]
            })
            .collect()
    });
    let rows = grid
        .labels
        .iter()
        .zip(&merged)
        .zip(&quantiles)
        .map(|((label, r), q)| {
            vec![
                Cell::from(*label),
                int(u64::from(r.hosts)),
                int(r.completed),
                int(r.dropped),
                int(q[0]),
                int(q[1]),
                int(q[2]),
                int(r.busy_ns),
            ]
        })
        .collect();
    let p = &grid.params;
    let table = render(
        &format!(
            "cluster_open: {} hosts x {} domains, {} clients, {} simulated, seed {}",
            p.hosts, p.domains_per_host, p.clients, p.duration, p.seed
        ),
        &[
            "platform",
            "hosts",
            "completed",
            "dropped",
            "p50 ns",
            "p99 ns",
            "p99.9 ns",
            "busy ns",
        ],
        rows,
    );

    let mut problems = Vec::new();
    for (label, r) in grid.labels.iter().zip(&merged) {
        if r.hosts != p.hosts {
            problems.push(format!("{label}: merged {} of {} hosts", r.hosts, p.hosts));
        }
        if r.completed == 0 || r.latency.count() != r.completed {
            problems.push(format!(
                "{label}: {} completed but {} latency samples",
                r.completed,
                r.latency.count()
            ));
        }
    }
    let requests = |r: &ClusterResult| (r.completed + r.dropped) as f64;
    Outcome {
        table,
        counts: vec![
            ("runner.cells", grid.cells() as f64),
            ("cluster.sim_requests", merged.iter().map(requests).sum()),
            (
                "cluster.dropped",
                merged.iter().map(|r| r.dropped as f64).sum(),
            ),
            ("cluster.docker.sim_requests", requests(&merged[0])),
            ("cluster.gvisor.sim_requests", requests(&merged[3])),
        ],
        problems,
    }
}

// ------------------------------------------------------------ closed loop

/// Connections per closed-loop point (Figure 3's client count).
pub const LOOP_CONNECTIONS: u32 = 50;

fn loop_duration(size: Size) -> Nanos {
    match size {
        Size::Full => Nanos::from_millis(300),
        Size::Quick => Nanos::from_millis(30),
    }
}

/// One closed-loop grid point.
struct LoopPoint {
    platform: String,
    result: ClosedLoopResult,
    miss: bool,
}

fn closed_loop(size: Size, seed: u64, runner: &Runner) -> Outcome {
    let costs = CostModel::skylake_cloud();
    let duration = loop_duration(size);
    let grid: Vec<(CloudEnv, RequestProfile)> = span("inputs", "grid", || {
        clouds()
            .into_iter()
            .flat_map(|cloud| figure3_profiles().into_iter().map(move |p| (cloud, p)))
            .collect()
    });
    // A fresh cache every iteration: hits come only from platforms whose
    // derived cost tables coincide within this grid.
    let cache = ClosedLoopCache::new();
    let cells: Vec<Vec<LoopPoint>> = span("runner", "run", || {
        runner.run(grid.len(), |i| {
            let (cloud, profile) = &grid[i];
            let (baseline, matrix) = span("inputs", "platform_matrix", || platform_matrix(*cloud));
            std::iter::once(baseline)
                .chain(matrix)
                .map(|platform| {
                    let server = ServerModel {
                        platform: platform.clone(),
                        profile: profile.clone(),
                        // nginx and redis run one worker, memcached four.
                        workers: if profile.name == "memcached" { 4 } else { 1 },
                        cores: 4,
                    };
                    let table = span("costs", "derive", || PlatformCosts::derive(&server, &costs));
                    let misses = cache.misses();
                    let result = span_by(
                        "http",
                        "get_or_run",
                        || cache.get_or_run(&table, LOOP_CONNECTIONS, duration, seed),
                        |_| {
                            if cache.misses() > misses {
                                "miss"
                            } else {
                                "hit"
                            }
                        },
                    );
                    LoopPoint {
                        platform: platform.name(),
                        miss: cache.misses() > misses,
                        result,
                    }
                })
                .collect()
        })
    });
    let stats: Vec<[f64; 4]> = span("stats", "quantile", || {
        cells
            .iter()
            .flatten()
            .map(|pt| {
                let l = &pt.result.latency;
                [
                    l.count() as f64,
                    l.mean(),
                    l.quantile(0.5) as f64,
                    l.quantile(0.99) as f64,
                ]
            })
            .collect()
    });
    let mut rows = Vec::new();
    let mut problems = Vec::new();
    let points = grid
        .iter()
        .zip(&cells)
        .flat_map(|((cloud, profile), pts)| pts.iter().map(move |pt| (cloud, profile, pt)));
    for ((cloud, profile, pt), s) in points.zip(&stats) {
        rows.push(vec![
            Cell::from(cloud.name()),
            Cell::from(profile.name),
            Cell::from(pt.platform.as_str()),
            Cell::Num(s[0], 0),
            Cell::Num(pt.result.throughput_rps, 3),
            Cell::Num(s[1], 1),
            Cell::Num(s[2], 0),
            Cell::Num(s[3], 0),
        ]);
        let served = (pt.result.throughput_rps * duration.as_secs_f64()).round();
        if s[0] == 0.0 || served != s[0] {
            problems.push(format!(
                "{} {} {}: throughput implies {served} requests, histogram holds {}",
                cloud.name(),
                profile.name,
                pt.platform,
                s[0]
            ));
        }
    }
    let table = render(
        &format!(
            "closed_loop: Figure 3 grid, {LOOP_CONNECTIONS} connections, {duration} simulated, seed {seed}"
        ),
        &[
            "cloud", "profile", "platform", "requests", "tput rps", "mean ns", "p50 ns", "p99 ns",
        ],
        rows,
    );
    let all: Vec<&LoopPoint> = cells.iter().flatten().collect();
    let lookups = (cache.hits() + cache.misses()) as usize;
    if lookups != all.len() {
        problems.push(format!("{lookups} cache lookups for {} points", all.len()));
    }
    Outcome {
        table,
        counts: vec![
            ("runner.cells", grid.len() as f64),
            ("http.calls", all.len() as f64),
            ("http.hits", cache.hits() as f64),
            ("http.misses", cache.misses() as f64),
            (
                "http.sim_requests",
                all.iter()
                    .filter(|pt| pt.miss)
                    .map(|pt| pt.result.latency.count() as f64)
                    .sum(),
            ),
        ],
        problems,
    }
}

// ------------------------------------------------------------------ chaos

/// Fault-rate axis of the chaos sweep, with span tags.
const CHAOS_RATES: [(f64, &str); 4] = [
    (0.0, "rate0"),
    (0.002, "rate0.002"),
    (0.01, "rate0.01"),
    (0.05, "rate0.05"),
];
/// Root of the sweep's fault plans (the `chaos_study` seed), fixed for
/// every `--seed`; the seed varies the service-time jitter. When a plan
/// first wedges a cell decides how much of its 4 s the service runs, so
/// seeding the plans moved the sweep's simulated work by up to a third
/// between seeds, and its host time with it.
const CHAOS_PLAN_SEED: u64 = 2019;
/// ABOM warm-up corpus on ABOM platforms.
const CHAOS_CORPUS_SITES: u64 = 128;
/// Syscalls a modelled request performs.
const CHAOS_SYSCALLS_PER_REQUEST: u64 = 64;
/// Application compute per request.
const CHAOS_APP_COMPUTE: Nanos = Nanos::from_micros(20);

/// Chaos-world parameters for one platform; mirrors the `chaos_study`
/// harness (service time from the platform's syscall costs, restart at
/// its spawn time).
pub fn chaos_params(platform: &Platform, costs: &CostModel, duration: Nanos) -> ChaosParams {
    let syscall = platform.syscall_cost(costs);
    let trapped = platform.syscall_cost_trapped(costs);
    ChaosParams {
        connections: 32,
        parallelism: 4,
        duration,
        rtt: Nanos::from_millis(1),
        base_service: CHAOS_APP_COMPUTE
            + syscall.saturating_mul(CHAOS_SYSCALLS_PER_REQUEST)
            + platform.event_entry_cost(costs),
        service_jitter: Nanos::from_micros(5),
        corpus_sites: if platform.abom_enabled() {
            CHAOS_CORPUS_SITES
        } else {
            0
        },
        syscalls_per_request: CHAOS_SYSCALLS_PER_REQUEST,
        trap_extra: trapped.saturating_sub(syscall),
        payload_bytes: 4096,
        delay_max: Nanos::from_micros(100),
        resend_timeout: Nanos::from_millis(2),
        retry: RetryPolicy::event_default(),
        watchdog_period: Nanos::from_millis(10),
        watchdog_timeout: Nanos::from_millis(20),
        restart_cost: Container::new("chaos-server", platform.clone()).spawn_time(),
    }
}

/// One chaos cell's result.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// Platform label.
    pub label: &'static str,
    /// Fault rate (`FaultRates::scaled` knob).
    pub rate: f64,
    /// The run's measurements.
    pub result: ChaosResult,
    /// The three conservation ledgers.
    pub conserved: Result<(), String>,
}

/// The chaos sweep's cells (platform-major, then fault rate).
pub fn chaos_cells(size: Size, seed: u64, runner: &Runner) -> Vec<ChaosCell> {
    let costs = CostModel::skylake_cloud();
    let duration = match size {
        Size::Full => Nanos::from_secs(4),
        Size::Quick => Nanos::from_millis(400),
    };
    let cloud = CloudEnv::AmazonEc2;
    let platforms = span("inputs", "platforms", || {
        [
            ("X-Container", Platform::x_container(cloud, true)),
            (
                "X-Container/no-ABOM",
                Platform::x_container_no_abom(cloud, true),
            ),
            ("Xen-Container", Platform::xen_container(cloud, true)),
        ]
    });
    span("runner", "run", || {
        runner.run(platforms.len() * CHAOS_RATES.len(), |i| {
            let (label, platform) = &platforms[i / CHAOS_RATES.len()];
            let (rate, tag) = CHAOS_RATES[i % CHAOS_RATES.len()];
            let params = span("costs", "chaos_params", || {
                chaos_params(platform, &costs, duration)
            });
            let (plan, jitter_seed) = span("faults", "for_cell", || {
                (
                    FaultPlan::for_cell(CHAOS_PLAN_SEED, i as u64, FaultRates::scaled(rate)),
                    Rng::substream(seed, 0x1000 + i as u64).next_u64(),
                )
            });
            let result = span_tagged("chaos", "run_chaos", tag, || {
                run_chaos(params, plan, jitter_seed)
            });
            let conserved = span("chaos", "check_conservation", || {
                result.check_conservation()
            });
            ChaosCell {
                label,
                rate,
                result,
                conserved,
            }
        })
    })
}

fn chaos_faults(size: Size, seed: u64, runner: &Runner) -> Outcome {
    let cells = chaos_cells(size, seed, runner);
    let p99: Vec<u64> = span("stats", "quantile", || {
        cells
            .iter()
            .map(|c| c.result.latency.quantile(0.99))
            .collect()
    });
    let mut problems = Vec::new();
    let rows = cells
        .iter()
        .zip(&p99)
        .map(|(c, &p99)| {
            let r = &c.result;
            vec![
                Cell::from(c.label),
                Cell::Num(c.rate, 3),
                int(r.issued),
                int(r.completed),
                int(r.abandoned),
                int(r.in_flight),
                int(r.resends),
                int(r.hypercall_retries),
                int(r.restarts),
                int(r.fault_stats.injected_total()),
                int(p99),
                Cell::from(match &c.conserved {
                    Ok(()) => "balanced".to_owned(),
                    Err(e) => format!("VIOLATED: {e}"),
                }),
            ]
        })
        .collect();
    for c in &cells {
        let r = &c.result;
        if let Err(e) = &c.conserved {
            problems.push(format!("{} @ {}: {e}", c.label, c.rate));
        }
        if c.rate == 0.0
            && (r.fault_stats.injected_total() > 0 || r.abandoned > 0 || r.restarts > 0)
        {
            problems.push(format!("{} @ 0: degraded without faults", c.label));
        }
    }
    let table = render(
        &format!(
            "chaos_faults: 3 platforms x {} fault rates, seed {seed}",
            CHAOS_RATES.len()
        ),
        &[
            "platform",
            "rate",
            "issued",
            "completed",
            "abandoned",
            "in flight",
            "resends",
            "hc retries",
            "restarts",
            "injected",
            "p99 ns",
            "ledgers",
        ],
        rows,
    );
    let issued_at = |rate: f64| -> f64 {
        cells
            .iter()
            .filter(|c| c.rate == rate)
            .map(|c| c.result.issued as f64)
            .sum()
    };
    let total =
        |f: fn(&ChaosResult) -> u64| -> f64 { cells.iter().map(|c| f(&c.result) as f64).sum() };
    Outcome {
        table,
        counts: vec![
            ("runner.cells", cells.len() as f64),
            ("chaos.sim_requests", total(|r| r.issued)),
            ("chaos.rate0.sim_requests", issued_at(0.0)),
            ("chaos.rate05.sim_requests", issued_at(0.05)),
            (
                "chaos.faults_injected",
                total(|r| r.fault_stats.injected_total()),
            ),
            ("chaos.resends", total(|r| r.resends)),
            ("chaos.hypercall_retries", total(|r| r.hypercall_retries)),
        ],
        problems,
    }
}

// ----------------------------------------------------------------- verify

/// Pre-flight syscalls per application (the `verify_study` default).
pub const PREFLIGHT_SYSCALLS: u64 = 3_000;

/// Pre-flight syscalls per application at `size`.
pub fn preflight_syscalls(size: Size) -> u64 {
    match size {
        Size::Full => PREFLIGHT_SYSCALLS,
        Size::Quick => 300,
    }
}

/// Everything one application's cell learns; mirrors the `verify_study`
/// harness row without its wall-time column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppRow {
    /// Table 1 application.
    pub name: &'static str,
    /// Syscall sites in its wrapper library.
    pub sites: usize,
    /// v2 `Safe` verdicts.
    pub safe: usize,
    /// v2 `Unsafe` verdicts.
    pub unsafe_: usize,
    /// v2 `Unknown` verdicts.
    pub unknown: usize,
    /// v1 (intraprocedural) `Unknown` verdicts.
    pub v1_unknown: usize,
    /// Sites the interprocedural pass upgraded to `Safe`.
    pub upgraded: usize,
    /// Post-patch re-verification passed.
    pub reverify_ok: bool,
    /// Detours re-verification found.
    pub detours: usize,
    /// Detours the offline patcher wrote.
    pub detour_patched: u64,
    /// Detours owed to interprocedural upgrades.
    pub recovered: u64,
    /// Online patches vetoed by the pre-flight verifier.
    pub rejections: u64,
    /// Study analysis-cache hits.
    pub study_cache_hits: u64,
    /// Study analysis-cache misses.
    pub study_cache_misses: u64,
    /// Pre-flight analysis-cache hits.
    pub kernel_cache_hits: u64,
    /// Pre-flight analysis-cache misses.
    pub kernel_cache_misses: u64,
}

/// Weighted-random wrapper invocations through an X-Container kernel with
/// the pre-flight verifier on (the `verify_study` ablation).
fn preflight(profile: &AppProfile, syscalls: u64, mut rng: Rng) -> AbomStats {
    let weights: Vec<f64> = profile.sites.iter().map(|s| s.weight).collect();
    let mut image = span("inputs", "library", || profile.library());
    let mut kernel = XContainerKernel::with_config(AbomConfig {
        enabled: true,
        nine_byte_phase2: true,
        preflight_verify: true,
    });
    span("abom", "preflight", || {
        for _ in 0..syscalls {
            let idx = rng.pick_weighted(&weights);
            let site = profile.sites[idx];
            let entry = image
                .symbol(&format!("wrapper_{idx}"))
                .expect("every site has a wrapper symbol");
            let stack = site.style.takes_stack_number().then_some(site.nr);
            let rdi = site.style.takes_register_number().then_some(site.nr);
            invoke_with(&mut image, &mut kernel, entry, stack, rdi)
                .expect("wrapper invocation succeeds");
        }
    });
    *kernel.stats()
}

fn app_row(profile: &AppProfile, syscalls: u64, rng: Rng) -> AppRow {
    let image = span("inputs", "library", || profile.library());
    let mut cache = AnalysisCache::new();
    let analysis = span("verify", "analyze", || {
        cache.analyze(&Verifier::new(), &image)
    });
    let (safe, unsafe_, unknown) = analysis.report().tally();
    let upgraded = span("verify", "summarize", || {
        summarize(analysis.report()).upgraded
    });
    let (_, _, v1_unknown) = span("verify", "v1_analyze", || {
        Verifier::with_config(VerifierConfig {
            interprocedural_upgrades: false,
            ..VerifierConfig::default()
        })
        .analyze(&image)
        .report()
        .tally()
    });
    let (patched, report) = span("abom", "offline_patch", || {
        OfflinePatcher::with_config(OfflineConfig {
            interprocedural: true,
            ..OfflineConfig::default()
        })
        .patch_with_cache(&image, &mut cache)
        .expect("offline patching succeeds")
    });
    let shape = span("verify", "reverify", || reverify(&patched, image.len()));
    let verified = preflight(profile, syscalls, rng);
    AppRow {
        name: profile.name,
        sites: profile.sites.len(),
        safe,
        unsafe_,
        unknown,
        v1_unknown,
        upgraded,
        reverify_ok: shape.ok(),
        detours: shape.detours.len(),
        detour_patched: report.detour_patched,
        recovered: report.interprocedural_recovered,
        rejections: verified.verify_rejected,
        study_cache_hits: cache.hits(),
        study_cache_misses: cache.misses(),
        kernel_cache_hits: verified.verify_cache_hits,
        kernel_cache_misses: verified.verify_cache_misses,
    }
}

/// One row per Table 1 application; each application gets a fresh
/// analysis cache and pre-flight substream `seed/i`.
pub fn verify_rows(size: Size, seed: u64, runner: &Runner) -> Vec<AppRow> {
    let profiles = span("inputs", "profiles", table1_profiles);
    let syscalls = preflight_syscalls(size);
    span("runner", "run", || {
        runner.run(profiles.len(), |i| {
            app_row(&profiles[i], syscalls, Rng::substream(seed, i as u64))
        })
    })
}

fn verify_corpus(size: Size, seed: u64, runner: &Runner) -> Outcome {
    let rows = verify_rows(size, seed, runner);
    let mut problems = Vec::new();
    for r in &rows {
        if r.safe != r.sites || r.unsafe_ + r.unknown > 0 {
            problems.push(format!(
                "{}: {}/{} sites proved safe",
                r.name, r.safe, r.sites
            ));
        }
        if !r.reverify_ok || r.detours as u64 != r.detour_patched {
            problems.push(format!("{}: post-patch re-verification failed", r.name));
        }
        if r.recovered as usize != r.upgraded {
            problems.push(format!(
                "{}: {} upgrades but {} recovered detours",
                r.name, r.upgraded, r.recovered
            ));
        }
        if r.rejections > 0 {
            problems.push(format!("{}: {} pre-flight vetoes", r.name, r.rejections));
        }
    }
    let table_rows = rows
        .iter()
        .map(|r| {
            vec![
                Cell::from(r.name),
                int(r.sites as u64),
                int(r.safe as u64),
                int(r.unsafe_ as u64),
                int(r.unknown as u64),
                int(r.v1_unknown as u64),
                int(r.upgraded as u64),
                Cell::from(if r.reverify_ok { "ok" } else { "FAIL" }),
                int(r.detours as u64),
                int(r.recovered),
                int(r.rejections),
                Cell::from(format!("{}/{}", r.study_cache_hits, r.study_cache_misses)),
                Cell::from(format!("{}/{}", r.kernel_cache_hits, r.kernel_cache_misses)),
            ]
        })
        .collect();
    let syscalls = preflight_syscalls(size);
    let table = render(
        &format!("verify_corpus: Table 1 corpus, {syscalls} pre-flight syscalls/app, seed {seed}"),
        &[
            "application",
            "sites",
            "safe",
            "unsafe",
            "unknown",
            "v1 unk",
            "upgraded",
            "reverify",
            "detours",
            "recovered",
            "vetoes",
            "study h/m",
            "kernel h/m",
        ],
        table_rows,
    );
    let sum = |f: fn(&AppRow) -> u64| -> f64 { rows.iter().map(|r| f(r) as f64).sum() };
    Outcome {
        table,
        counts: vec![
            ("runner.cells", rows.len() as f64),
            ("verify.sites", sum(|r| r.sites as u64)),
            (
                "verify.cache_hits",
                sum(|r| r.study_cache_hits + r.kernel_cache_hits),
            ),
            (
                "verify.cache_misses",
                sum(|r| r.study_cache_misses + r.kernel_cache_misses),
            ),
            ("abom.syscalls", (syscalls * rows.len() as u64) as f64),
        ],
        problems,
    }
}
