//! Figure 4 — relative system call throughput, single and concurrent,
//! on both clouds (see the `fig4_syscall` binary).

use std::fmt::Write as _;

use xcontainers::prelude::*;
use xcontainers::workloads::unixbench::concurrent_score;

use super::HarnessOutput;
use crate::{clouds, platform_matrix, ratio, Finding};

/// One cloud: appends the full ten-configuration table and its findings
/// to `out`, and returns patched X-Container's single-copy ratio to
/// patched Docker (the headline).
fn cloud_table(cloud: CloudEnv, costs: &CostModel, out: &mut HarnessOutput) -> f64 {
    let findings = &mut out.findings;
    let mut table = Table::new(
        &format!("Figure 4: relative syscall throughput — {}", cloud.name()),
        &["configuration", "single", "concurrent (4x)"],
    );
    let (baseline, matrix) = platform_matrix(cloud);
    let base_single = syscall_score(&baseline, costs);
    let base_conc = concurrent_score(base_single, &baseline, 4);
    let cloud_name = cloud.name().to_lowercase();
    let mut headline = f64::NAN;
    // Clear Container's raw score, patched then unpatched (GCE only).
    let mut clear = Vec::new();

    for platform in matrix {
        let single = syscall_score(&platform, costs);
        let conc = concurrent_score(single, &platform, 4);
        table.row([
            Cell::from(platform.name()),
            Cell::Num(single / base_single, 2),
            Cell::Num(conc / base_conc, 2),
        ]);
        if platform.kind() == PlatformKind::XContainer && platform.is_patched() {
            headline = single / base_single;
            findings.push(Finding {
                experiment: "fig4",
                metric: format!("x_vs_docker_{cloud_name}"),
                paper: "up to 27x".to_owned(),
                measured: headline,
                in_band: (15.0..45.0).contains(&headline),
            });
            findings.push(Finding {
                experiment: "fig4",
                metric: format!("x_concurrent_scaling_{cloud_name}"),
                paper: "4 copies scale across cores".to_owned(),
                measured: conc / single,
                in_band: conc / single > 3.0,
            });
        }
        if platform.kind() == PlatformKind::Gvisor && platform.is_patched() {
            findings.push(Finding {
                experiment: "fig4",
                metric: format!("gvisor_vs_docker_{cloud_name}"),
                paper: "7-9% of Docker".to_owned(),
                measured: single / base_single,
                in_band: (0.04..0.15).contains(&(single / base_single)),
            });
            findings.push(Finding {
                experiment: "fig4",
                metric: format!("gvisor_concurrent_scaling_{cloud_name}"),
                paper: "4 copies gain nothing (no multicore)".to_owned(),
                measured: conc / single,
                in_band: conc == single,
            });
        }
        if platform.kind() == PlatformKind::ClearContainer {
            clear.push(single);
        }
    }
    if let [patched, unpatched] = clear[..] {
        let effect = (patched / unpatched - 1.0).abs();
        findings.push(Finding {
            experiment: "fig4",
            metric: format!("clear_patch_effect_{cloud_name}"),
            paper: "patch does not move Clear".to_owned(),
            measured: effect,
            in_band: effect == 0.0,
        });
    }
    table.render_into(&mut out.text);
    out.text.push('\n');
    headline
}

/// Runs both clouds in order, then the headline comparison.
pub fn run() -> HarnessOutput {
    let costs = CostModel::skylake_cloud();
    let mut out = HarnessOutput::default();
    let headlines: Vec<f64> = clouds()
        .into_iter()
        .map(|cloud| cloud_table(cloud, &costs, &mut out))
        .collect();
    // `clouds()` lists EC2 first: its ratio is the headline.
    let headline = headlines[0];
    let _ = write!(
        out.text,
        "Headline: X-Container raw syscall throughput = {} Docker (paper: up to 27x).\n\
         The Meltdown patch leaves X-Containers and Clear Containers untouched:\n\
         optimized syscalls never cross the hardware privilege boundary (§5.4).\n",
        ratio(headline)
    );
    out
}
