//! The combined reproduction pass (see the `all_experiments` binary):
//! every table/figure reduced to its headline findings, one summary
//! table at the end. Each experiment slice is one runner cell, so the
//! nine independent measurement groups fan out across workers while the
//! merged summary stays in fixed experiment order.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use xcontainers::prelude::*;
use xcontainers::workloads::apps::{memcached, nginx_static, redis};
use xcontainers::workloads::fig6::{fig6a_nginx_1worker, fig6b_nginx_4workers, fig6c_php_mysql};
use xcontainers::workloads::loadbalance::{throughput as lb_throughput, LbMode};
use xcontainers::workloads::scalability::{throughput as sc_throughput, ScalabilityConfig};
use xcontainers::workloads::table1::run_table1;
use xcontainers::workloads::unixbench::MicroBench;

use super::{HarnessOutput, Journaled};
use crate::journal::{self, CellPayload, ResumeArgs};
use crate::runner::Runner;
use crate::Finding;

/// Table 1 sample size for the combined pass (reduced from the full
/// study to keep the pass fast).
const TABLE1_SYSCALLS: u64 = 8_000;
const TABLE1_SEED: u64 = 2019;

fn table1_cell() -> Vec<Finding> {
    run_table1(TABLE1_SYSCALLS, TABLE1_SEED)
        .into_iter()
        .map(|(p, m)| Finding {
            experiment: "table1",
            metric: format!("{}_reduction", p.name),
            paper: format!("{:.1}%", p.paper_reduction),
            measured: m.online_reduction,
            in_band: (m.online_reduction - p.paper_reduction).abs() < 2.0,
        })
        .collect()
}

fn fig4_cell(costs: &CostModel) -> Vec<Finding> {
    let docker = Platform::docker(CloudEnv::AmazonEc2, true);
    let xc = Platform::x_container(CloudEnv::AmazonEc2, true);
    let f4 = SystemCallBench::score(&xc, costs) / SystemCallBench::score(&docker, costs);
    vec![Finding {
        experiment: "fig4",
        metric: "x_vs_docker_syscall".to_owned(),
        paper: "up to 27x".to_owned(),
        measured: f4,
        in_band: (15.0..45.0).contains(&f4),
    }]
}

/// One Figure 3 closed-loop profile on EC2 (`which` ∈ 0..3).
fn fig3_cell(which: usize, costs: &CostModel) -> Vec<Finding> {
    let (profile, paper, band) = match which {
        0 => (nginx_static(), "1.21-1.50x", (1.0, 1.9)),
        1 => (memcached(), "1.34-2.08x", (1.2, 2.6)),
        _ => (redis(), "~1x", (0.8, 1.5)),
    };
    let docker = Platform::docker(CloudEnv::AmazonEc2, true);
    let xc = Platform::x_container(CloudEnv::AmazonEc2, true);
    let workers = if profile.name == "memcached" { 4 } else { 1 };
    let d = ServerModel {
        platform: docker,
        profile: profile.clone(),
        workers,
        cores: 4,
    };
    let x = ServerModel {
        platform: xc,
        profile: profile.clone(),
        workers,
        cores: 4,
    };
    let dt = run_closed_loop(&d, costs, 50, Nanos::from_millis(200), 7).throughput_rps;
    let xt = run_closed_loop(&x, costs, 50, Nanos::from_millis(200), 7).throughput_rps;
    vec![Finding {
        experiment: "fig3",
        metric: format!("x_{}_throughput_gain", profile.name),
        paper: paper.to_owned(),
        measured: xt / dt,
        in_band: (band.0..band.1).contains(&(xt / dt)),
    }]
}

fn fig5_cell(costs: &CostModel) -> Vec<Finding> {
    let docker = Platform::docker(CloudEnv::AmazonEc2, true);
    let xc = Platform::x_container(CloudEnv::AmazonEc2, true);
    [
        (MicroBench::Execl, true),
        (MicroBench::FileCopy, true),
        (MicroBench::PipeThroughput, true),
        (MicroBench::ContextSwitching, false),
        (MicroBench::ProcessCreation, false),
    ]
    .into_iter()
    .map(|(bench, wins)| {
        let rel = bench.score(&xc, costs) / bench.score(&docker, costs);
        Finding {
            experiment: "fig5",
            metric: bench.label().to_lowercase().replace(' ', "_"),
            paper: if wins { ">1 (X wins)" } else { "<1 (X loses)" }.to_owned(),
            measured: rel,
            in_band: (rel > 1.0) == wins,
        }
    })
    .collect()
}

fn fig6_cell(costs: &CostModel) -> Vec<Finding> {
    let u = fig6a_nginx_1worker(LibOsPlatform::Unikernel, costs);
    let g = fig6a_nginx_1worker(LibOsPlatform::Graphene, costs);
    let x6 = fig6a_nginx_1worker(LibOsPlatform::XContainer, costs);
    let g4 = fig6b_nginx_4workers(LibOsPlatform::Graphene, costs).expect("graphene");
    let x4 = fig6b_nginx_4workers(LibOsPlatform::XContainer, costs).expect("x");
    let u_ded = fig6c_php_mysql(LibOsPlatform::Unikernel, DbTopology::Dedicated, costs).expect("u");
    let x_merged = fig6c_php_mysql(
        LibOsPlatform::XContainer,
        DbTopology::DedicatedMerged,
        costs,
    )
    .expect("x merged");
    vec![
        Finding {
            experiment: "fig6",
            metric: "nginx1_x_vs_u".to_owned(),
            paper: "≈1x".to_owned(),
            measured: x6 / u,
            in_band: (0.85..1.35).contains(&(x6 / u)),
        },
        Finding {
            experiment: "fig6",
            metric: "nginx1_x_vs_g".to_owned(),
            paper: ">2x".to_owned(),
            measured: x6 / g,
            in_band: x6 / g > 1.6,
        },
        Finding {
            experiment: "fig6",
            metric: "nginx4_x_vs_g".to_owned(),
            paper: ">1.5x".to_owned(),
            measured: x4 / g4,
            in_band: x4 / g4 > 1.5,
        },
        Finding {
            experiment: "fig6",
            metric: "php_merged_vs_u_dedicated".to_owned(),
            paper: "~3x".to_owned(),
            measured: x_merged / u_ded,
            in_band: (2.0..4.0).contains(&(x_merged / u_ded)),
        },
    ]
}

fn fig8_cell(costs: &CostModel) -> Vec<Finding> {
    let d400 = sc_throughput(ScalabilityConfig::Docker, 400, costs).expect("d");
    let x400 = sc_throughput(ScalabilityConfig::XContainer, 400, costs).expect("x");
    vec![Finding {
        experiment: "fig8",
        metric: "x_gain_at_400_pct".to_owned(),
        paper: "18%".to_owned(),
        measured: (x400 / d400 - 1.0) * 100.0,
        in_band: (8.0..35.0).contains(&((x400 / d400 - 1.0) * 100.0)),
    }]
}

fn fig9_cell(costs: &CostModel) -> Vec<Finding> {
    let lb_docker = lb_throughput(LbMode::HaproxyDocker, costs);
    let lb_x = lb_throughput(LbMode::HaproxyXContainer, costs);
    vec![Finding {
        experiment: "fig9",
        metric: "haproxy_x_vs_docker".to_owned(),
        paper: "2x".to_owned(),
        measured: lb_x / lb_docker,
        in_band: (1.5..2.8).contains(&(lb_x / lb_docker)),
    }]
}

/// Experiment ids this pass can emit — the intern table the journal
/// decoder uses to restore [`Finding::experiment`]'s `&'static str`.
const EXPERIMENTS: [&str; 7] = ["table1", "fig4", "fig3", "fig5", "fig6", "fig8", "fig9"];

fn intern_experiment(name: &str) -> Option<&'static str> {
    EXPERIMENTS.iter().find(|e| **e == name).copied()
}

/// Exact checkpoint codec for one measurement group's findings. The
/// serialized form is [`Finding::to_json`] (what `results/*.json`
/// holds); decode interns the experiment id against [`EXPERIMENTS`] and
/// rejects records naming unknown experiments.
impl CellPayload for Vec<Finding> {
    fn to_payload(&self) -> Json {
        Json::Arr(self.iter().map(Finding::to_json).collect())
    }

    fn from_payload(payload: &Json) -> Option<Self> {
        payload
            .as_arr()?
            .iter()
            .map(|e| {
                Some(Finding {
                    experiment: intern_experiment(e.get("experiment")?.as_str()?)?,
                    metric: e.get("metric")?.as_str()?.to_owned(),
                    paper: e.get("paper")?.as_str()?.to_owned(),
                    measured: e.get("measured")?.as_num()?,
                    in_band: e.get("in_band")?.as_bool()?,
                })
            })
            .collect()
    }
}

/// Grid size: the nine independent measurement groups.
pub const CELLS: usize = 9;

/// Executes measurement group `i`.
fn cell(i: usize, costs: &CostModel) -> Vec<Finding> {
    match i {
        0 => table1_cell(),
        1 => fig4_cell(costs),
        2..=4 => fig3_cell(i - 2, costs),
        5 => fig5_cell(costs),
        6 => fig6_cell(costs),
        7 => fig8_cell(costs),
        _ => fig9_cell(costs),
    }
}

/// Journal fingerprint: the sample sizes and seed that select what the
/// cells measure (the platform matrices are compile-time constants).
pub fn grid_fingerprint() -> u64 {
    journal::fingerprint(
        "all_experiments",
        &[TABLE1_SYSCALLS, TABLE1_SEED, CELLS as u64],
    )
}

/// Runs every experiment slice and renders the combined summary.
pub fn run(runner: &Runner) -> HarnessOutput {
    let costs = CostModel::skylake_cloud();
    render_cells(runner.run(CELLS, |i| cell(i, &costs)))
}

/// The crash-safe variant of [`run`]: checkpoints each measurement
/// group under `root`, resumes from any compatible journal, and stops
/// gracefully on SIGINT or the `resume` limits.
///
/// # Errors
///
/// Filesystem errors opening or repairing the journal.
pub fn run_journaled(
    runner: &Runner,
    root: &Path,
    name: &str,
    resume: &ResumeArgs,
) -> io::Result<Journaled> {
    let costs = CostModel::skylake_cloud();
    super::run_journaled(
        runner,
        root,
        name,
        grid_fingerprint(),
        CELLS,
        resume,
        |i| cell(i, &costs),
        render_cells,
    )
}

/// Renders the combined summary from the index-ordered cell findings.
fn render_cells(cells: Vec<Vec<Finding>>) -> HarnessOutput {
    let findings: Vec<Finding> = cells.into_iter().flatten().collect();

    let mut summary = Table::new(
        "X-Containers reproduction — paper vs measured, all experiments",
        &["experiment", "metric", "paper", "measured", "in band"],
    );
    for f in &findings {
        summary.row([
            Cell::from(f.experiment),
            Cell::from(f.metric.clone()),
            Cell::from(f.paper.clone()),
            Cell::Num(f.measured, 2),
            Cell::from(if f.in_band { "yes" } else { "NO" }),
        ]);
    }
    let out_of_band = findings.iter().filter(|f| !f.in_band).count();
    let mut text = String::new();
    summary.render_into(&mut text);
    let _ = write!(
        text,
        "\n{} findings, {} outside the acceptance band.\n",
        findings.len(),
        out_of_band
    );
    HarnessOutput {
        text,
        findings,
        cache_stats: None,
    }
}
