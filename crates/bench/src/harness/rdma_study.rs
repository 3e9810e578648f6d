//! §5.7 software-RDMA capability study (extension experiment; see the
//! `rdma_study` binary): message ping-pong latency over TCP sockets vs
//! soft-RDMA verbs, and which platforms can load the module at all.

use std::fmt::Write as _;

use xcontainers::prelude::*;
use xcontainers::workloads::rdma::{ping_pong_latency, transport_available, Transport};

use super::HarnessOutput;
use crate::Finding;

/// Renders the latency table and the 64-byte verbs-vs-sockets finding.
pub fn run() -> HarnessOutput {
    let costs = CostModel::skylake_cloud();
    let cloud = CloudEnv::LocalCluster;
    let platforms = [
        Platform::docker(cloud, true),
        Platform::gvisor(cloud, true),
        Platform::x_container(cloud, true),
        Platform::xen_container(cloud, true),
    ];

    let sizes: [u64; 4] = [64, 4 * 1024, 64 * 1024, 1024 * 1024];
    let mut table = Table::new(
        "Soft-RDMA vs TCP ping-pong round-trip latency",
        &["platform", "transport", "64 B", "4 KiB", "64 KiB", "1 MiB"],
    );
    for p in &platforms {
        for transport in [Transport::TcpSockets, Transport::SoftRdma] {
            let mut cells = vec![
                Cell::from(p.name()),
                Cell::from(match transport {
                    Transport::TcpSockets => "TCP sockets",
                    Transport::SoftRdma => "soft-RDMA",
                }),
            ];
            if transport_available(p, transport) {
                for &bytes in &sizes {
                    let l = ping_pong_latency(p, transport, bytes, &costs).expect("available");
                    cells.push(Cell::from(l.to_string()));
                }
            } else {
                cells.push(Cell::from("needs kernel module: host root + host network"));
            }
            table.row(cells);
        }
    }

    let xc = Platform::x_container(cloud, true);
    let tcp = ping_pong_latency(&xc, Transport::TcpSockets, 64, &costs).expect("sockets");
    let rdma = ping_pong_latency(&xc, Transport::SoftRdma, 64, &costs).expect("X loads soft-RDMA");
    let mut text = String::new();
    table.render_into(&mut text);
    let _ = writeln!(
        text,
        "\nX-Containers load rdma_rxe/siw as an ordinary module of their own\n\
         kernel (§5.7); Docker cannot without exposing the host. 64-byte\n\
         verbs round trip: {} vs {} over sockets.",
        rdma, tcp
    );
    let findings = vec![Finding {
        experiment: "rdma_study",
        metric: "x_rdma_vs_tcp_64b".to_owned(),
        paper: "capability enabled by kernel customization (§5.7)".to_owned(),
        measured: tcp.as_nanos() as f64 / rdma.as_nanos() as f64,
        in_band: rdma < tcp,
    }];
    HarnessOutput { text, findings }
}
