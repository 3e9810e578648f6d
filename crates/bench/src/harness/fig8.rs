//! Figure 8 — throughput scalability as the number of containers
//! increases (see the `fig8_scalability` binary). Each platform's sweep
//! is the closed-form, RNG-free model of
//! [`xcontainers::workloads::scalability`], evaluated once per
//! configuration.

use std::fmt::Write as _;

use xcontainers::prelude::*;
use xcontainers::workloads::scalability::{figure8_points, sweep, ScalabilityConfig};

use super::HarnessOutput;
use crate::Finding;

/// Runs the four platform sweeps, in `ScalabilityConfig::ALL` order.
pub fn run() -> HarnessOutput {
    let costs = CostModel::skylake_cloud();
    let points = figure8_points();
    let sweeps: Vec<_> = ScalabilityConfig::ALL
        .into_iter()
        .map(|config| sweep(config, &costs))
        .collect();

    let mut table = Table::new(
        "Figure 8: aggregate throughput (requests/s) vs container count",
        &["N", "Docker", "X-Container", "Xen HVM", "Xen PV"],
    );
    for (i, n) in points.iter().enumerate() {
        let cell = |cfg_idx: usize| match sweeps[cfg_idx][i].throughput_rps {
            Some(v) => Cell::Num(v, 0),
            None => Cell::from("cannot boot"),
        };
        table.row([Cell::from(*n), cell(0), cell(1), cell(2), cell(3)]);
    }

    // Pull the headline points straight out of the sweeps.
    let at = |cfg_idx: usize, n: u64| {
        let i = points.iter().position(|p| *p == n).expect("figure 8 point");
        sweeps[cfg_idx][i].throughput_rps.expect("bootable point")
    };
    let (d50, x50) = (at(0, 50), at(1, 50));
    let (d400, x400) = (at(0, 400), at(1, 400));
    let gain_400 = (x400 / d400 - 1.0) * 100.0;

    let mut text = String::new();
    table.render_into(&mut text);
    let _ = write!(
        text,
        "\n\
         At N=50:  Docker {:.0} rps vs X-Container {:.0} rps (Docker leads — \n\
          cheaper switches, processes spread over idle cores).\n\
         At N=400: Docker {:.0} rps vs X-Container {:.0} rps — X-Containers\n\
          ahead by {:.1}% (paper: 18%). Flat CFS over 4N processes degrades;\n\
          N vCPUs over 16 cores with 4-process inner schedulers do not.\n\
         Xen PV stops at 250 instances and Xen HVM at 200 — 512 MiB guests\n\
          exhaust the 96 GB host (§5.6).\n",
        d50, x50, d400, x400, gain_400
    );

    let mut findings = vec![
        Finding {
            experiment: "fig8",
            metric: "x_gain_over_docker_at_400".to_owned(),
            paper: "18%".to_owned(),
            measured: gain_400,
            in_band: (8.0..35.0).contains(&gain_400),
        },
        Finding {
            experiment: "fig8",
            metric: "docker_leads_at_50".to_owned(),
            paper: "Docker higher at small N".to_owned(),
            measured: d50 / x50,
            in_band: d50 > x50,
        },
    ];
    // The largest N each Xen configuration boots in the sweep: 512 MiB
    // guests must run out of host memory before N=400.
    for (cfg_idx, metric, paper) in [
        (3, "xen_pv_max_containers", "250 (PV cannot reach 400)"),
        (2, "xen_hvm_max_containers", "200 (HVM cannot reach 400)"),
    ] {
        let max = sweeps[cfg_idx]
            .iter()
            .filter(|p| p.throughput_rps.is_some())
            .map(|p| p.containers)
            .max()
            .unwrap_or(0);
        findings.push(Finding {
            experiment: "fig8",
            metric: metric.to_owned(),
            paper: paper.to_owned(),
            measured: max as f64,
            in_band: max < 400,
        });
    }
    HarnessOutput { text, findings }
}
