//! Figure 6 — throughput comparison for Unikernel (U), Graphene (G) and
//! X-Container (X) on the local cluster: NGINX with 1 and 4 workers, and
//! the 2×PHP+MySQL topologies of Figure 7 (see the `fig6_libos` binary).
//! Each value is computed once; the findings read the values the tables
//! print.

use xcontainers::prelude::*;
use xcontainers::workloads::fig6::{fig6a_nginx_1worker, fig6b_nginx_4workers, fig6c_php_mysql};

use super::HarnessOutput;
use crate::Finding;

/// Renders the three panels and the §5.5 findings.
pub fn run() -> HarnessOutput {
    let costs = CostModel::skylake_cloud();
    let mut text = String::new();
    let mut findings = Vec::new();

    // ---- (a) NGINX, 1 worker ------------------------------------------
    // `LibOsPlatform::ALL` is in figure order: G, U, X.
    let nginx1 = LibOsPlatform::ALL.map(|p| fig6a_nginx_1worker(p, &costs));
    let mut a = Table::new(
        "Figure 6a: NGINX 1 worker (requests/s)",
        &["platform", "req/s"],
    );
    for (p, v) in LibOsPlatform::ALL.iter().zip(nginx1) {
        a.row([Cell::from(p.letter()), Cell::Num(v, 0)]);
    }
    a.render_into(&mut text);
    text.push('\n');
    let [g, u, x] = nginx1;
    findings.push(Finding {
        experiment: "fig6",
        metric: "nginx1_x_vs_unikernel".to_owned(),
        paper: "comparable (≈1x)".to_owned(),
        measured: x / u,
        in_band: (0.85..1.35).contains(&(x / u)),
    });
    findings.push(Finding {
        experiment: "fig6",
        metric: "nginx1_x_vs_graphene".to_owned(),
        paper: "over twice Graphene".to_owned(),
        measured: x / g,
        in_band: (1.6..2.8).contains(&(x / g)),
    });

    // ---- (b) NGINX, 4 workers ------------------------------------------
    let nginx4 = LibOsPlatform::ALL.map(|p| fig6b_nginx_4workers(p, &costs));
    let mut b = Table::new(
        "Figure 6b: NGINX 4 workers (requests/s)",
        &["platform", "req/s"],
    );
    for (p, v) in LibOsPlatform::ALL.iter().zip(nginx4) {
        match v {
            Some(v) => b.row([Cell::from(p.letter()), Cell::Num(v, 0)]),
            None => b.row([
                Cell::from(p.letter()),
                Cell::from("unsupported (single process)"),
            ]),
        };
    }
    b.render_into(&mut text);
    text.push('\n');
    let g4 = nginx4[0].expect("graphene 4w");
    let x4 = nginx4[2].expect("x 4w");
    findings.push(Finding {
        experiment: "fig6",
        metric: "nginx4_x_vs_graphene".to_owned(),
        paper: "more than 50% over Graphene".to_owned(),
        measured: x4 / g4,
        in_band: x4 / g4 > 1.5,
    });

    // ---- (c) 2×PHP + MySQL ---------------------------------------------
    // `DbTopology::ALL` is in figure order: Shared, Dedicated, Merged.
    let php = DbTopology::ALL.map(|topo| {
        (
            fig6c_php_mysql(LibOsPlatform::Unikernel, topo, &costs),
            fig6c_php_mysql(LibOsPlatform::XContainer, topo, &costs),
        )
    });
    let mut c = Table::new(
        "Figure 6c: 2×PHP+MySQL total throughput (requests/s)",
        &["topology", "Unikernel", "X-Container"],
    );
    let fmt = |v: Option<f64>| match v {
        Some(v) => Cell::Num(v, 0),
        None => Cell::from("n/a"),
    };
    for (topo, (u, x)) in DbTopology::ALL.iter().zip(php) {
        c.row([Cell::from(topo.label()), fmt(u), fmt(x)]);
    }
    c.render_into(&mut text);
    text.push('\n');
    let [_, (u_ded, x_ded), (_, x_merged)] = php;
    let u_ded = u_ded.expect("unikernel dedicated");
    let x_ded = x_ded.expect("x dedicated");
    let x_merged = x_merged.expect("x merged");
    findings.push(Finding {
        experiment: "fig6",
        metric: "php_x_vs_unikernel_dedicated".to_owned(),
        paper: "over 40% above Unikernel".to_owned(),
        measured: x_ded / u_ded,
        in_band: x_ded / u_ded > 1.4,
    });
    findings.push(Finding {
        experiment: "fig6",
        metric: "php_merged_vs_unikernel_dedicated".to_owned(),
        paper: "about three times Unikernel Dedicated".to_owned(),
        measured: x_merged / u_ded,
        in_band: (2.0..4.0).contains(&(x_merged / u_ded)),
    });

    // §2.3 / §6: of the LibOS-style platforms, only X-Containers offer
    // binary compatibility, multiprocessing and multicore together.
    let cloud = CloudEnv::LocalCluster;
    let full: Vec<String> = [
        Platform::x_container(cloud, true),
        Platform::graphene(cloud),
        Platform::unikernel(cloud),
        Platform::gvisor(cloud, true),
    ]
    .iter()
    .filter(|p| p.binary_compatible() && p.supports_multiprocess() && p.supports_multicore())
    .map(Platform::name)
    .collect();
    findings.push(Finding {
        experiment: "fig6",
        metric: "x_only_full_libos".to_owned(),
        paper: "only X-Containers (§2.3)".to_owned(),
        measured: full.len() as f64,
        in_band: full == ["X-Container"],
    });

    text.push_str(
        "Mechanisms (§5.5): Graphene coordinates POSIX state over IPC; a\n\
         unikernel cannot host two processes, so PHP and MySQL must talk\n\
         across VMs — the Merged X-Container deletes that round trip.\n",
    );
    HarnessOutput { text, findings }
}
