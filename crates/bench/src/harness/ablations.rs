//! Ablations of the design choices DESIGN.md §4 calls out (see the
//! `ablations` binary), one section each, in order:
//!
//! 1. **ABOM on/off** — how much of the X-Container win is the binary
//!    optimizer vs the restructured trap path,
//! 2. **Global-bit mappings** — the §4.3 TLB optimization,
//! 3. **Hierarchical scheduling** — Figure 8 at N=400 with the X-Kernel
//!    forced to flat per-request switch costs,
//! 4. **Meltdown/KPTI** — the patch tax per platform,
//! 5. **9-byte phase 2** — patching completeness with the second phase
//!    disabled.

use std::fmt::Write as _;

use xcontainers::abom::binaries::{glibc_large_nr_wrapper_image, invoke};
use xcontainers::prelude::*;
use xcontainers::workloads::apps::memcached;
use xcontainers::workloads::scalability::{throughput, ScalabilityConfig};

use super::HarnessOutput;
use crate::Finding;

fn abom_on_off(cloud: CloudEnv, costs: &CostModel, out: &mut HarnessOutput) {
    let on = Platform::x_container(cloud, true);
    let off = Platform::x_container_no_abom(cloud, true);
    let syscall_gain =
        off.syscall_cost(costs).as_nanos() as f64 / on.syscall_cost(costs).as_nanos() as f64;
    let mem_on = memcached().service_time(&on, costs);
    let mem_off = memcached().service_time(&off, costs);
    let macro_gain = mem_off.as_nanos() as f64 / mem_on.as_nanos() as f64;
    let mut t = Table::new(
        "Ablation 1: ABOM on vs off (X-Container, EC2 patched)",
        &["metric", "ABOM off", "ABOM on", "gain"],
    );
    t.row([
        "syscall dispatch".into(),
        Cell::from(off.syscall_cost(costs).to_string()),
        Cell::from(on.syscall_cost(costs).to_string()),
        Cell::Num(syscall_gain, 1),
    ]);
    t.row([
        "memcached service time".into(),
        Cell::from(mem_off.to_string()),
        Cell::from(mem_on.to_string()),
        Cell::Num(macro_gain, 2),
    ]);
    push_section(out, &t);
    out.findings.push(Finding {
        experiment: "ablations",
        metric: "abom_syscall_gain".to_owned(),
        paper: "function calls vs forwarded traps".to_owned(),
        measured: syscall_gain,
        in_band: syscall_gain > 5.0,
    });
}

fn global_bit(costs: &CostModel, out: &mut HarnessOutput) {
    let xk = Backend::XKernel.process_switch_cost(costs);
    let pv = Backend::XenPv.process_switch_cost(costs);
    let mut t = Table::new(
        "Ablation 2: global-bit kernel mappings (§4.3)",
        &["configuration", "process switch"],
    );
    t.row([
        "global bit set (X-LibOS)".into(),
        Cell::from(xk.to_string()),
    ]);
    t.row([
        "global bit clear (plain PV)".into(),
        Cell::from(pv.to_string()),
    ]);
    push_section(out, &t);
    out.findings.push(Finding {
        experiment: "ablations",
        metric: "global_bit_switch_saving_ns".to_owned(),
        paper: "avoids kernel-TLB refill per switch".to_owned(),
        measured: (pv - xk).as_nanos() as f64,
        in_band: pv > xk,
    });
}

fn scheduling(costs: &CostModel, out: &mut HarnessOutput) {
    let x400 = throughput(ScalabilityConfig::XContainer, 400, costs).expect("x@400");
    let d400 = throughput(ScalabilityConfig::Docker, 400, costs).expect("d@400");
    let mut t = Table::new(
        "Ablation 3: hierarchical vs flat scheduling at N=400",
        &["configuration", "aggregate req/s"],
    );
    t.row([
        "hierarchical (X-Kernel + X-LibOS)".into(),
        Cell::Num(x400, 0),
    ]);
    t.row(["flat (one CFS, 1600 tasks)".into(), Cell::Num(d400, 0)]);
    push_section(out, &t);
}

fn kpti_tax(cloud: CloudEnv, costs: &CostModel, out: &mut HarnessOutput) {
    let mut t = Table::new(
        "Ablation 4: Meltdown patch tax on syscall dispatch",
        &["platform", "unpatched", "patched", "tax"],
    );
    let platforms = [
        ("Docker", Platform::docker as fn(CloudEnv, bool) -> Platform),
        ("Xen-Container", Platform::xen_container),
        ("X-Container", Platform::x_container),
    ];
    for (name, platform) in platforms {
        let a = platform(cloud, false).syscall_cost(costs);
        let b = platform(cloud, true).syscall_cost(costs);
        t.row([
            name.into(),
            Cell::from(a.to_string()),
            Cell::from(b.to_string()),
            Cell::Num(b.as_nanos() as f64 / a.as_nanos() as f64, 2),
        ]);
    }
    push_section(out, &t);
}

/// ABOM's reduction and return fix-ups over 100 calls of a large-number
/// wrapper, with the 9-byte replacement's phase 2 on or off.
fn phase2_row(phase2: bool) -> (f64, u64) {
    let mut image = glibc_large_nr_wrapper_image(15);
    let entry = image.symbol("wrapper").expect("wrapper");
    let mut kernel = XContainerKernel::with_config(AbomConfig {
        enabled: true,
        nine_byte_phase2: phase2,
        preflight_verify: false,
    });
    for _ in 0..100 {
        invoke(&mut image, &mut kernel, entry, None).expect("invoke");
    }
    (
        kernel.stats().reduction_percent(),
        kernel.stats().return_fixups,
    )
}

fn nine_byte_phase2(out: &mut HarnessOutput) {
    let mut t = Table::new(
        "Ablation 5: 9-byte replacement phase 2 (jmp back) on/off",
        &["phase 2", "reduction %", "return fixups"],
    );
    for phase2 in [true, false] {
        let (reduction, fixups) = phase2_row(phase2);
        t.row([
            Cell::from(if phase2 { "on" } else { "off" }),
            Cell::Num(reduction, 1),
            Cell::from(fixups),
        ]);
    }
    t.render_into(&mut out.text);
    let _ = write!(
        out.text,
        "\n\
         Both states deliver the same reduction — the paper's claim that\n\
         each intermediate state of the two-phase patch is valid; phase 2\n\
         merely replaces dead bytes.\n"
    );
}

/// Appends one section table followed by the blank separator line.
fn push_section(out: &mut HarnessOutput, t: &Table) {
    t.render_into(&mut out.text);
    out.text.push('\n');
}

/// Runs the five sections in order.
pub fn run() -> HarnessOutput {
    let costs = CostModel::skylake_cloud();
    let cloud = CloudEnv::AmazonEc2;
    let mut out = HarnessOutput::default();
    abom_on_off(cloud, &costs, &mut out);
    global_bit(&costs, &mut out);
    scheduling(&costs, &mut out);
    kpti_tax(cloud, &costs, &mut out);
    nine_byte_phase2(&mut out);
    out
}
