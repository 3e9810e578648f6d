//! Cluster study — hosts × X-Container domains under open-loop traffic
//! from a modelled client population (see the `cluster_study` binary).
//!
//! The paper benchmarks one server at a time; this extension asks the
//! operator's question: at cloud scale, how many container domains does
//! a host pack per platform, and what do the latency tails and drop
//! rates look like when millions of clients drive the cluster? The full
//! study simulates 120 hosts × 24 microservice domains each (2,880
//! domains) under Poisson traffic from 1.2 million clients; `--quick`
//! shrinks that to an 8-host smoke test for CI.
//!
//! Parallelism follows the repo's determinism recipe: hosts are
//! independent substream-seeded worlds, so the grid cells are
//! (platform, contiguous host chunk) pairs whose [`ClusterResult`]s
//! merge in host-index order — byte-identical output at any `--jobs`.

use std::io;
use std::path::Path;

use xcontainers::prelude::*;
use xcontainers::workloads::apps::microservice;
use xcontainers::workloads::cluster::run_cluster_range;

use super::{HarnessOutput, Journaled};
use crate::journal::{
    fingerprint, hex_u64, histogram_from_json, histogram_to_json, u64_from_hex, CellPayload,
    ResumeArgs,
};
use crate::runner::Runner;
use crate::Finding;

/// Host chunks per platform — fixed (never derived from the worker
/// count) so the cell grid, and therefore the merged output, is a pure
/// function of the parameters.
const CHUNKS: u32 = 16;

/// Study shape for one mode. `--quick` must stay cheap enough for
/// `scripts/check.sh`; the full run is the headline ≥100 hosts ×
/// ≥1000 domains × ≥1M clients configuration.
pub fn params(quick: bool) -> ClusterParams {
    if quick {
        ClusterParams {
            hosts: 8,
            domains_per_host: 6,
            clients: 40_000,
            think_time: Nanos::from_secs(1),
            duration: Nanos::from_millis(120),
            queue_cap: 64,
            zipf_theta: 0.2,
            host_cores: 16,
            seed: 42,
        }
    } else {
        ClusterParams {
            hosts: 120,
            domains_per_host: 24,
            clients: 1_200_000,
            think_time: Nanos::from_secs(1),
            duration: Nanos::from_millis(500),
            queue_cap: 64,
            zipf_theta: 0.2,
            host_cores: 16,
            seed: 42,
        }
    }
}

/// The platforms under comparison, on the on-prem cluster environment
/// the paper's §5.1 bare-metal experiments use. Docker first — it is
/// the normalization baseline.
pub fn platforms() -> Vec<Platform> {
    let cloud = CloudEnv::LocalCluster;
    vec![
        Platform::docker(cloud, true),
        Platform::xen_container(cloud, true),
        Platform::x_container(cloud, true),
        Platform::gvisor(cloud, true),
    ]
}

fn derive_table(platform: &Platform, costs: &CostModel) -> PlatformCosts {
    PlatformCosts::derive(
        &ServerModel {
            platform: platform.clone(),
            profile: microservice(),
            workers: 1,
            cores: 1,
        },
        costs,
    )
}

/// Exact checkpoint codec for one cell's [`ClusterResult`]: raw `u64`
/// counters ride as hex (a `Json::Num` is an `f64` and would round
/// them), the latency histogram through the sparse checkpoint codec.
impl CellPayload for ClusterResult {
    fn to_payload(&self) -> Json {
        json_object([
            ("hosts", Json::Num(f64::from(self.hosts))),
            ("completed", hex_u64(self.completed)),
            ("dropped", hex_u64(self.dropped)),
            ("busy_ns", hex_u64(self.busy_ns)),
            ("latency", histogram_to_json(&self.latency)),
        ])
    }

    fn from_payload(payload: &Json) -> Option<Self> {
        let hosts = payload.get("hosts")?.as_num()?;
        if hosts.fract() != 0.0 || !(0.0..=f64::from(u32::MAX)).contains(&hosts) {
            return None;
        }
        Some(ClusterResult {
            hosts: hosts as u32,
            completed: u64_from_hex(payload.get("completed")?)?,
            dropped: u64_from_hex(payload.get("dropped")?)?,
            busy_ns: u64_from_hex(payload.get("busy_ns")?)?,
            latency: histogram_from_json(payload.get("latency")?)?,
        })
    }
}

/// The study's cell grid: geometry, the cell function, and the config
/// fingerprint that guards journal replay — shared by the straight
/// [`run`] and the crash-safe [`run_journaled`] so the two can never
/// disagree on what a cell computes.
pub struct Grid {
    p: ClusterParams,
    plats: Vec<Platform>,
    tables: Vec<PlatformCosts>,
    chunks: u32,
    quick: bool,
}

impl Grid {
    /// Builds the grid for one mode.
    pub fn new(quick: bool) -> Self {
        let costs = CostModel::skylake_cloud();
        let p = params(quick);
        let plats = platforms();
        let tables: Vec<PlatformCosts> = plats.iter().map(|pl| derive_table(pl, &costs)).collect();
        let chunks = CHUNKS.min(p.hosts).max(1);
        Grid {
            p,
            plats,
            tables,
            chunks,
            quick,
        }
    }

    /// Cells in the (platform × host-chunk) grid.
    pub fn cells(&self) -> usize {
        self.plats.len() * self.chunks as usize
    }

    /// Executes cell `i`: one platform's contiguous host range.
    pub fn cell(&self, i: usize) -> ClusterResult {
        let chunks = self.chunks as usize;
        let (base, rem) = (self.p.hosts / self.chunks, self.p.hosts % self.chunks);
        let pi = i / chunks;
        let ci = (i % chunks) as u32;
        let first = ci * base + ci.min(rem);
        let count = base + u32::from(ci < rem);
        run_cluster_range(&self.tables[pi], &self.p, first, count)
    }

    /// Journal fingerprint: every parameter that selects what a cell
    /// computes. Two runs replay each other's checkpoints iff these
    /// match.
    pub fn fingerprint(&self) -> u64 {
        let p = &self.p;
        fingerprint(
            "cluster_study",
            &[
                u64::from(p.hosts),
                u64::from(p.domains_per_host),
                p.clients,
                p.think_time.as_nanos(),
                p.duration.as_nanos(),
                p.queue_cap as u64,
                p.zipf_theta.to_bits(),
                u64::from(p.host_cores),
                p.seed,
                u64::from(self.chunks),
                self.plats.len() as u64,
            ],
        )
    }

    /// Merges the index-ordered cell results and renders the density
    /// table plus findings — the deterministic output both paths share.
    pub fn render(&self, cells: Vec<ClusterResult>) -> HarnessOutput {
        render_cells(&self.p, &self.plats, self.chunks, self.quick, &cells)
    }
}

/// Runs the study: a (platform × host-chunk) cell grid under `runner`,
/// merged per platform in host order, rendered as one density table.
pub fn run(runner: &Runner, quick: bool) -> HarnessOutput {
    let grid = Grid::new(quick);
    let cells = runner.run(grid.cells(), |i| grid.cell(i));
    grid.render(cells)
}

/// The crash-safe variant: checkpoints each completed cell under
/// `root`, resumes from any compatible journal, and stops gracefully on
/// SIGINT or the `resume` limits. Completed output is byte-identical to
/// [`run`]'s.
///
/// # Errors
///
/// Filesystem errors opening or repairing the journal.
pub fn run_journaled(
    runner: &Runner,
    quick: bool,
    root: &Path,
    name: &str,
    resume: &ResumeArgs,
) -> io::Result<Journaled> {
    let grid = Grid::new(quick);
    super::run_journaled(
        runner,
        root,
        name,
        grid.fingerprint(),
        grid.cells(),
        resume,
        |i| grid.cell(i),
        |cells| grid.render(cells),
    )
}

/// Renders the merged per-platform results (host order) as the density
/// table, shape note, and findings.
fn render_cells(
    p: &ClusterParams,
    plats: &[Platform],
    chunks: u32,
    quick: bool,
    cells: &[ClusterResult],
) -> HarnessOutput {
    let merged: Vec<ClusterResult> = cells
        .chunks(chunks as usize)
        .map(|parts| {
            let mut whole = ClusterResult::default();
            whole.merge_many(&parts.iter().collect::<Vec<_>>());
            whole
        })
        .collect();

    let mode = if quick { "quick" } else { "full" };
    let mut table = Table::new(
        &format!(
            "Cluster study ({mode}): {} hosts × {} domains/host ({} domains), {} clients",
            p.hosts,
            p.domains_per_host,
            p.total_domains(),
            p.clients
        ),
        &[
            "configuration",
            "tput (krps)",
            "p50 ms",
            "p99 ms",
            "p99.9 ms",
            "drop %",
            "util %",
            "domains/host",
        ],
    );
    for (plat, r) in plats.iter().zip(&merged) {
        table.row([
            Cell::from(plat.name()),
            Cell::Num(r.throughput_rps(p.duration) / 1e3, 1),
            Cell::Num(r.quantile_ms(0.50), 2),
            Cell::Num(r.quantile_ms(0.99), 2),
            Cell::Num(r.quantile_ms(0.999), 2),
            Cell::Num(r.drop_rate() * 100.0, 3),
            Cell::Num(r.utilization(p.host_cores, p.duration) * 100.0, 1),
            Cell::Num(r.density_domains_per_host(p), 0),
        ]);
    }
    let mut text = String::new();
    table.render_into(&mut text);
    text.push('\n');
    text.push_str(
        "Shape: density (sustainable domains per host) orders by per-request\n\
         cost — X-Containers pack the most, then Docker, then Xen-Containers;\n\
         gVisor packs the fewest and is the first to saturate, surfacing as\n\
         queue drops and a p99.9 blowup rather than graceful degradation.\n",
    );

    let docker = &merged[0];
    let xen = &merged[1];
    let xc = &merged[2];
    let gv = &merged[3];
    let density = |r: &ClusterResult| r.density_domains_per_host(p);
    let mut findings = vec![
        Finding {
            experiment: "cluster",
            metric: format!("xc_density_vs_docker_{mode}"),
            paper: "X wins macro perf => densest packing".to_owned(),
            measured: density(xc) / density(docker),
            in_band: density(xc) / density(docker) > 1.0,
        },
        Finding {
            experiment: "cluster",
            metric: format!("gvisor_density_vs_docker_{mode}"),
            paper: "gVisor trails everywhere".to_owned(),
            measured: density(gv) / density(docker),
            in_band: density(gv) / density(docker) < 1.0,
        },
        Finding {
            experiment: "cluster",
            metric: format!("xen_density_between_docker_and_gvisor_{mode}"),
            paper: "unpatched-guest Xen pays I/O tax, beats gVisor".to_owned(),
            measured: density(xen) / density(docker),
            in_band: density(xen) < density(docker) && density(xen) > density(gv),
        },
        Finding {
            experiment: "cluster",
            metric: format!("xc_p99_vs_docker_{mode}"),
            paper: "at or below Docker's tail".to_owned(),
            measured: xc.quantile_ms(0.99) / docker.quantile_ms(0.99),
            in_band: xc.quantile_ms(0.99) <= docker.quantile_ms(0.99) * 1.05,
        },
    ];
    if !quick {
        // Only the full-scale load pushes gVisor's hottest domain past
        // its service capacity; the quick smoke test is deliberately
        // unsaturated.
        findings.push(Finding {
            experiment: "cluster",
            metric: "gvisor_saturation_drops_full".to_owned(),
            paper: "first platform to shed load at scale".to_owned(),
            measured: gv.drop_rate(),
            in_band: gv.drop_rate() > docker.drop_rate(),
        });
    }

    HarnessOutput::merge(vec![(text, findings)])
}
