//! Ablations of the design choices DESIGN.md §4 calls out (see the
//! `ablations` binary). Each numbered section is a group of runner
//! cells:
//!
//! 1. **ABOM on/off** — how much of the X-Container win is the binary
//!    optimizer vs the restructured trap path,
//! 2. **Global-bit mappings** — the §4.3 TLB optimization,
//! 3. **Hierarchical scheduling** — Figure 8 at N=400 with the X-Kernel
//!    forced to flat per-request switch costs,
//! 4. **Meltdown/KPTI** — the patch tax per platform,
//! 5. **9-byte phase 2** — patching completeness with the second phase
//!    disabled.
//!
//! The scalability, KPTI and phase-2 sections are split into per-row
//! sub-cells (nine cells total instead of five), so `--jobs N` keeps
//! scaling past five workers; the sections are reassembled from the
//! index-ordered merge, so the output is byte-identical at any worker
//! count (every cell is deterministic).

use std::fmt::Write as _;

use xcontainers::abom::binaries::{glibc_large_nr_wrapper_image, invoke};
use xcontainers::prelude::*;
use xcontainers::workloads::apps::memcached;
use xcontainers::workloads::scalability::{throughput, ScalabilityConfig};

use super::HarnessOutput;
use crate::runner::Runner;
use crate::Finding;

/// One fine-grained cell's result; sections are reassembled in order.
enum CellOut {
    /// A complete section (text + findings).
    Section(String, Vec<Finding>),
    /// One Figure-8-at-400 throughput point (section 3).
    SchedPoint(f64),
    /// One platform row of the KPTI table (section 4).
    KptiRow(&'static str, Nanos, Nanos),
    /// One phase-2 state row (section 5).
    PhaseRow(bool, f64, u64),
}

fn abom_on_off(cloud: CloudEnv, costs: &CostModel) -> CellOut {
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
    let findings = vec![Finding {
        experiment: "ablations",
        metric: "abom_syscall_gain".to_owned(),
        paper: "function calls vs forwarded traps".to_owned(),
        measured: syscall_gain,
        in_band: syscall_gain > 5.0,
    }];
    CellOut::Section(section_text(&t), findings)
}

fn global_bit(costs: &CostModel) -> CellOut {
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
    let findings = vec![Finding {
        experiment: "ablations",
        metric: "global_bit_switch_saving_ns".to_owned(),
        paper: "avoids kernel-TLB refill per switch".to_owned(),
        measured: (pv - xk).as_nanos() as f64,
        in_band: pv > xk,
    }];
    CellOut::Section(section_text(&t), findings)
}

/// The three KPTI-tax platforms, in table-row order.
const KPTI_PLATFORMS: [&str; 3] = ["Docker", "Xen-Container", "X-Container"];

fn kpti_row(name: &'static str, cloud: CloudEnv, costs: &CostModel) -> CellOut {
    let (p_on, p_off) = match name {
        "Docker" => (
            Platform::docker(cloud, true),
            Platform::docker(cloud, false),
        ),
        "Xen-Container" => (
            Platform::xen_container(cloud, true),
            Platform::xen_container(cloud, false),
        ),
        _ => (
            Platform::x_container(cloud, true),
            Platform::x_container(cloud, false),
        ),
    };
    CellOut::KptiRow(name, p_off.syscall_cost(costs), p_on.syscall_cost(costs))
}

fn phase2_row(phase2: bool) -> CellOut {
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
    CellOut::PhaseRow(
        phase2,
        kernel.stats().reduction_percent(),
        kernel.stats().return_fixups,
    )
}

/// Renders one section table followed by the blank separator line.
fn section_text(t: &Table) -> String {
    let mut text = String::new();
    t.render_into(&mut text);
    text.push('\n');
    text
}

/// Runs the nine fine-grained cells and reassembles the five sections.
pub fn run(runner: &Runner) -> HarnessOutput {
    let costs = CostModel::skylake_cloud();
    let cloud = CloudEnv::AmazonEc2;
    let cells = runner.run(9, |i| match i {
        0 => abom_on_off(cloud, &costs),
        1 => global_bit(&costs),
        2 => CellOut::SchedPoint(
            throughput(ScalabilityConfig::XContainer, 400, &costs).expect("x@400"),
        ),
        3 => {
            CellOut::SchedPoint(throughput(ScalabilityConfig::Docker, 400, &costs).expect("d@400"))
        }
        4..=6 => kpti_row(KPTI_PLATFORMS[i - 4], cloud, &costs),
        7 => phase2_row(true),
        _ => phase2_row(false),
    });

    let mut sections: Vec<(String, Vec<Finding>)> = Vec::new();
    let mut sched_points = Vec::new();
    let mut kpti_rows = Vec::new();
    let mut phase_rows = Vec::new();
    for cell in cells {
        match cell {
            CellOut::Section(text, findings) => sections.push((text, findings)),
            CellOut::SchedPoint(v) => sched_points.push(v),
            CellOut::KptiRow(name, off, on) => kpti_rows.push((name, off, on)),
            CellOut::PhaseRow(phase2, reduction, fixups) => {
                phase_rows.push((phase2, reduction, fixups));
            }
        }
    }

    let (x400, d400) = (sched_points[0], sched_points[1]);
    let mut t = Table::new(
        "Ablation 3: hierarchical vs flat scheduling at N=400",
        &["configuration", "aggregate req/s"],
    );
    t.row([
        "hierarchical (X-Kernel + X-LibOS)".into(),
        Cell::Num(x400, 0),
    ]);
    t.row(["flat (one CFS, 1600 tasks)".into(), Cell::Num(d400, 0)]);
    sections.push((section_text(&t), Vec::new()));

    let mut t = Table::new(
        "Ablation 4: Meltdown patch tax on syscall dispatch",
        &["platform", "unpatched", "patched", "tax"],
    );
    for (name, a, b) in &kpti_rows {
        t.row([
            (*name).into(),
            Cell::from(a.to_string()),
            Cell::from(b.to_string()),
            Cell::Num(b.as_nanos() as f64 / a.as_nanos() as f64, 2),
        ]);
    }
    sections.push((section_text(&t), Vec::new()));

    let mut t = Table::new(
        "Ablation 5: 9-byte replacement phase 2 (jmp back) on/off",
        &["phase 2", "reduction %", "return fixups"],
    );
    for (phase2, reduction, fixups) in &phase_rows {
        t.row([
            Cell::from(if *phase2 { "on" } else { "off" }),
            Cell::Num(*reduction, 1),
            Cell::from(*fixups),
        ]);
    }
    let mut text = String::new();
    t.render_into(&mut text);
    let _ = write!(
        text,
        "\n\
         Both states deliver the same reduction — the paper's claim that\n\
         each intermediate state of the two-phase patch is valid; phase 2\n\
         merely replaces dead bytes.\n"
    );
    sections.push((text, Vec::new()));

    HarnessOutput::merge(sections)
}
