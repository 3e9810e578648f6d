//! §4.5 — container instantiation latency (extension experiment; see the
//! `spawn_time` binary).
//!
//! The paper quotes three numbers: 180 ms to boot an X-LibOS with a bash
//! process, ~3 s total through the stock `xl` toolstack, and LightVM's
//! 4 ms toolstack as the fix. This harness prints the spawn-time model
//! for every platform and both toolstacks.

use std::fmt::Write as _;

use xcontainers::prelude::*;

use super::HarnessOutput;
use crate::Finding;

/// Renders the spawn-time table and the `xl` toolstack finding.
pub fn run() -> HarnessOutput {
    let cloud = CloudEnv::LocalCluster;
    let platforms = [
        Platform::docker(cloud, true),
        Platform::gvisor(cloud, true),
        Platform::x_container(cloud, true),
        Platform::xen_container(cloud, true),
        Platform::unikernel(cloud),
    ];

    let mut table = Table::new(
        "Container instantiation latency (§4.5)",
        &["platform", "spawn method", "latency"],
    );
    for p in &platforms {
        let c = Container::new("bash", p.clone());
        table.row([
            Cell::from(p.name()),
            Cell::from(c.spawn_method().to_string()),
            Cell::from(c.spawn_time().to_string()),
        ]);
    }
    // The LightVM improvement path for X-Containers.
    let improved = Container::new("bash", Platform::x_container(cloud, true))
        .with_spawn(SpawnMethod::LightVmToolstack);
    table.separator();
    table.row([
        Cell::from("X-Container (LightVM toolstack)"),
        Cell::from(improved.spawn_method().to_string()),
        Cell::from(improved.spawn_time().to_string()),
    ]);

    let xl = Container::new("x", Platform::x_container(cloud, true)).spawn_time();
    let mut text = String::new();
    table.render_into(&mut text);
    let _ = writeln!(
        text,
        "\nPrototype X-Container spawn: {xl} — dominated by the xl toolstack\n\
         (the 180 ms bootloader is the irreducible part). LightVM-style\n\
         toolstack surgery brings it to {} (§4.5).",
        improved.spawn_time()
    );
    let findings = vec![Finding {
        experiment: "spawn_time",
        metric: "xl_toolstack_total_ms".to_owned(),
        paper: "3 s".to_owned(),
        measured: xl.as_millis_f64(),
        in_band: (2_500.0..3_500.0).contains(&xl.as_millis_f64()),
    }];
    HarnessOutput { text, findings }
}
