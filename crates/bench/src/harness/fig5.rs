//! Figure 5 — UnixBench microbenchmarks + iperf in four panels
//! (cloud × single/concurrent), normalized to patched Docker (see the
//! `fig5_micro` binary).

use xcontainers::prelude::*;
use xcontainers::workloads::iperf;
use xcontainers::workloads::unixbench::{concurrent_score, MicroBench};

use super::HarnessOutput;
use crate::{clouds, platform_matrix, Finding};

/// Patched X-Container's claim on each microbenchmark, in
/// `MicroBench::ALL` order: metric stem, the paper's words, and whether
/// X beats patched Docker (§5.4).
const X_CLAIMS: [(&str, &str, bool); 5] = [
    ("execl", "above 1 (X wins Execl)", true),
    ("filecopy", "above 1 (X wins File Copy)", true),
    ("pipe", "above 1 (X wins Pipe)", true),
    ("ctxswitch", "below 1 (PT ops cross into X-Kernel)", false),
    ("proccreate", "below 1", false),
];

/// One cloud: scores every microbenchmark once per platform, then
/// appends the Single and Concurrent panels and their findings to `out`
/// from that matrix. The concurrent panel is pure arithmetic over the
/// single-copy scores ([`concurrent_score`]), so hoisting the score
/// computation halves the model evaluations without moving a single
/// byte of output.
fn cloud_panels(cloud: CloudEnv, costs: &CostModel, out: &mut HarnessOutput) {
    let (baseline, matrix) = platform_matrix(cloud);
    let score_vec = |p: &Platform| -> (Vec<f64>, f64) {
        (
            MicroBench::ALL.iter().map(|b| b.score(p, costs)).collect(),
            iperf::throughput_bps(p, costs),
        )
    };
    let (base_single, base_iperf) = score_vec(&baseline);
    let rows: Vec<(Platform, Vec<f64>, f64)> = matrix
        .into_iter()
        .map(|p| {
            let (scores, iperf) = score_vec(&p);
            (p, scores, iperf)
        })
        .collect();

    let cloud_name = cloud.name().to_lowercase();
    let HarnessOutput { text, findings } = out;
    for concurrent in [false, true] {
        let mode = if concurrent { "Concurrent" } else { "Single" };
        let mut table = Table::new(
            &format!(
                "Figure 5: {} {} (relative to patched Docker)",
                cloud.name(),
                mode
            ),
            &[
                "configuration",
                "Execl",
                "File Copy",
                "Pipe Tput",
                "Ctx Switch",
                "Proc Create",
                "iperf",
            ],
        );

        let base: Vec<f64> = base_single
            .iter()
            .map(|&s| {
                if concurrent {
                    concurrent_score(s, &baseline, 4)
                } else {
                    s
                }
            })
            .collect();

        for (platform, single, iperf) in &rows {
            let mut cells = vec![Cell::from(platform.name())];
            for (i, &s0) in single.iter().enumerate() {
                let s = if concurrent {
                    concurrent_score(s0, platform, 4)
                } else {
                    s0
                };
                cells.push(Cell::Num(s / base[i], 2));
            }
            cells.push(Cell::Num(iperf / base_iperf, 2));
            table.row(cells);

            if platform.kind() == PlatformKind::XContainer && platform.is_patched() && !concurrent {
                for (i, &(name, paper, wins)) in X_CLAIMS.iter().enumerate() {
                    let rel = single[i] / base[i];
                    findings.push(Finding {
                        experiment: "fig5",
                        metric: format!("x_{name}_{cloud_name}"),
                        paper: paper.to_owned(),
                        measured: rel,
                        in_band: if wins { rel > 1.0 } else { rel < 1.0 },
                    });
                }
            }
        }
        table.render_into(text);
        text.push('\n');
    }

    // The largest move the Meltdown patch makes on any X-Container bar.
    let x_scores = |patched: bool| {
        rows.iter()
            .find(|(p, ..)| p.kind() == PlatformKind::XContainer && p.is_patched() == patched)
            .map(|(_, scores, _)| scores)
            .expect("X-Container in the platform matrix")
    };
    let patch_effect = x_scores(true)
        .iter()
        .zip(x_scores(false))
        .map(|(p, u)| (p / u - 1.0).abs())
        .fold(0.0, f64::max);
    findings.push(Finding {
        experiment: "fig5",
        metric: format!("x_patch_effect_{cloud_name}"),
        paper: "patch does not move X bars".to_owned(),
        measured: patch_effect,
        in_band: patch_effect == 0.0,
    });
}

/// Runs the clouds in order; each renders its Single and Concurrent
/// panels in the figure's order.
pub fn run() -> HarnessOutput {
    let costs = CostModel::skylake_cloud();
    let mut out = HarnessOutput::default();
    for cloud in clouds() {
        cloud_panels(cloud, &costs, &mut out);
    }
    out.text.push_str(
        "Shape (§5.4): X-Containers win the syscall-dominated benchmarks\n\
         (Execl, File Copy, Pipe) and lose Context Switching and Process\n\
         Creation, whose page-table operations must be validated by the\n\
         X-Kernel. The Meltdown patch does not move X-Container bars.\n",
    );
    out
}
