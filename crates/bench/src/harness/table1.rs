//! Table 1 — Evaluation of the Automatic Binary Optimization Module
//! (see the `table1` binary).
//!
//! Runs each application's wrapper-site mix through the real ABOM
//! patcher and interpreter, counting trapped vs function-call syscalls
//! exactly as the paper's X-Kernel counter does (§5.2).

use xcontainers::prelude::*;
use xcontainers::workloads::table1::run_table1;

use super::HarnessOutput;
use crate::Finding;

const SYSCALLS_PER_APP: u64 = 20_000;
const SEED: u64 = 2019;

/// Measures every Table 1 row; each row's online reduction (and MySQL's
/// offline one) must land within 2 percentage points of the paper.
pub fn run() -> HarnessOutput {
    let mut table = Table::new(
        "Table 1: ABOM syscall reduction (20k dynamic syscalls per app)",
        &[
            "Application",
            "Implementation",
            "Benchmark",
            "paper %",
            "measured %",
            "offline %",
        ],
    );
    let mut findings = Vec::new();

    for (profile, m) in run_table1(SYSCALLS_PER_APP, SEED) {
        let offline_cell = if profile.paper_manual.is_some() {
            Cell::Num(m.offline_reduction, 2)
        } else {
            Cell::Blank
        };
        table.row([
            Cell::from(profile.name),
            Cell::from(profile.language),
            Cell::from(profile.benchmark),
            Cell::Num(profile.paper_reduction, 2),
            Cell::Num(m.online_reduction, 2),
            offline_cell,
        ]);
        findings.push(Finding {
            experiment: "table1",
            metric: format!("{}_reduction", profile.name),
            paper: format!("{:.2}%", profile.paper_reduction),
            measured: m.online_reduction,
            in_band: (m.online_reduction - profile.paper_reduction).abs() < 2.0,
        });
        if let Some(manual) = profile.paper_manual {
            findings.push(Finding {
                experiment: "table1",
                metric: format!("{}_manual_reduction", profile.name),
                paper: format!("{manual:.2}%"),
                measured: m.offline_reduction,
                in_band: (m.offline_reduction - manual).abs() < 2.0,
            });
        }
    }
    let mut text = String::new();
    table.render_into(&mut text);
    text.push_str(
        "\nMySQL's cancellable libpthread wrappers defeat online ABOM (44.6%);\n\
         the offline detour tool recovers them to ~92% — both reproduced by\n\
         the byte-level patcher, not asserted.\n",
    );
    HarnessOutput { text, findings }
}
