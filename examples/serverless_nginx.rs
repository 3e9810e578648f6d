//! Serverless front-end scenario (§1): a stateless NGINX webserver under
//! a wrk-style closed-loop load generator, compared across container
//! runtimes — throughput and tail latency.
//!
//! Run with: `cargo run --example serverless_nginx`

use xcontainers::prelude::*;
use xcontainers::workloads::apps::nginx_static;

fn main() {
    let costs = CostModel::skylake_cloud();
    let cloud = CloudEnv::GoogleGce;
    let connections = 64;
    let duration = Nanos::from_millis(400);

    let contenders: Vec<Platform> = vec![
        Platform::docker(cloud, true),
        Platform::docker(cloud, false),
        Platform::xen_container(cloud, true),
        Platform::x_container(cloud, true),
        Platform::gvisor(cloud, true),
        Platform::clear_container(cloud, true).expect("GCE has nested virt"),
    ];

    let mut table = Table::new(
        &format!("NGINX static page, {connections} connections, wrk closed loop"),
        &["platform", "req/s", "p50 (µs)", "p99 (µs)", "vs Docker"],
    );

    let mut baseline_rps = None;
    for platform in contenders {
        let server = ServerModel {
            platform: platform.clone(),
            profile: nginx_static(),
            workers: 1,
            cores: 4,
        };
        let derived = PlatformCosts::derive(&server, &costs);
        let result = run_closed_loop(&derived, connections, duration, 42);
        let baseline = *baseline_rps.get_or_insert(result.throughput_rps);
        table.row([
            Cell::from(platform.name()),
            Cell::Num(result.throughput_rps, 0),
            Cell::Num(result.latency.quantile(0.50) as f64 / 1_000.0, 1),
            Cell::Num(result.latency.quantile(0.99) as f64 / 1_000.0, 1),
            Cell::Num(result.throughput_rps / baseline, 2),
        ]);
    }
    println!("{table}");
    println!(
        "Shape check (Figure 3): X-Container above Docker; gVisor and Clear \
         Containers below; the Meltdown patch costs Docker but not X-Containers."
    );
}
