//! Figure 9 — kernel-level load balancing (§5.7): HAProxy on Docker,
//! HAProxy on X-Containers, IPVS NAT, and IPVS direct routing (see the
//! `fig9_loadbalance` binary).

use std::fmt::Write as _;

use xcontainers::prelude::*;
use xcontainers::workloads::loadbalance::{
    balancer_cost, bottleneck, throughput, Bottleneck, LbMode,
};

use super::HarnessOutput;
use crate::Finding;

/// Renders the four configurations and the three rungs of the ladder.
pub fn run() -> HarnessOutput {
    let costs = CostModel::skylake_cloud();

    let mut table = Table::new(
        "Figure 9: load balancing throughput (3 NGINX backends)",
        &[
            "configuration",
            "balancer cost/req",
            "total req/s",
            "bottleneck",
        ],
    );
    // `LbMode::ALL` is in figure order: HAProxy on Docker, HAProxy on X,
    // IPVS NAT, IPVS direct routing.
    let modes = LbMode::ALL.map(|mode| (throughput(mode, &costs), bottleneck(mode, &costs)));
    for (mode, (rps, neck)) in LbMode::ALL.iter().zip(modes) {
        table.row([
            Cell::from(mode.label()),
            Cell::from(balancer_cost(*mode, &costs).to_string()),
            Cell::Num(rps, 0),
            Cell::from(match neck {
                Bottleneck::Balancer => "balancer",
                Bottleneck::Backends => "backends",
            }),
        ]);
    }
    let [(docker, _), (hx, _), (nat, nat_neck), (dr, dr_neck)] = modes;
    let nat_gain = (nat / hx - 1.0) * 100.0;

    let mut text = String::new();
    table.render_into(&mut text);
    let _ = writeln!(
        text,
        "\nHAProxy on X vs Docker: {:.2}x (paper: 2x). IPVS NAT over HAProxy-X:\n\
         +{:.0}% (paper: +12%, balancer still the bottleneck). Direct routing\n\
         over NAT: {:.2}x (paper: ~2.5x, bottleneck shifts to the backends).",
        hx / docker,
        nat_gain,
        dr / nat
    );

    let findings = vec![
        Finding {
            experiment: "fig9",
            metric: "haproxy_x_vs_docker".to_owned(),
            paper: "2x".to_owned(),
            measured: hx / docker,
            in_band: (1.5..2.8).contains(&(hx / docker)),
        },
        Finding {
            experiment: "fig9",
            metric: "ipvs_nat_gain_pct".to_owned(),
            paper: "+12%".to_owned(),
            measured: nat_gain,
            in_band: (2.0..60.0).contains(&nat_gain) && nat_neck == Bottleneck::Balancer,
        },
        Finding {
            experiment: "fig9",
            metric: "direct_routing_vs_nat".to_owned(),
            paper: "~2.5x, backend-bound".to_owned(),
            measured: dr / nat,
            in_band: (1.7..3.5).contains(&(dr / nat)) && dr_neck == Bottleneck::Backends,
        },
    ];
    HarnessOutput { text, findings }
}
