//! The combined reproduction pass (see the `all_experiments` binary):
//! the union of the findings of the seven table and figure harnesses —
//! [`table1`], [`fig3`], [`fig4`], [`fig5`], [`fig6`], [`fig8`] and
//! [`fig9`] — in paper order, rendered as one summary table. Every paper
//! claim is computed, and its band set, by the harness that draws its
//! figure; this pass only collects them.

use std::fmt::Write as _;

use xcontainers::prelude::*;

use super::{fig3, fig4, fig5, fig6, fig8, fig9, table1, HarnessOutput};
use crate::runner::Runner;
use crate::Finding;

/// Runs the seven harnesses in paper order (fig3's grid through
/// `runner`, the rest serially) and renders the summary of their
/// findings.
pub fn run(runner: &Runner) -> HarnessOutput {
    let findings: Vec<Finding> = [
        table1::run(),
        fig3::run(runner),
        fig4::run(),
        fig5::run(),
        fig6::run(),
        fig8::run(),
        fig9::run(),
    ]
    .into_iter()
    .flat_map(|out| out.findings)
    .collect();

    let mut summary = Table::new(
        "X-Containers reproduction — paper vs measured, all experiments",
        &["experiment", "metric", "paper", "measured", "in band"],
    );
    for f in &findings {
        summary.row([
            Cell::from(f.experiment),
            Cell::from(f.metric.clone()),
            Cell::from(f.paper.clone()),
            Cell::Num(f.measured, 2),
            Cell::from(if f.in_band { "yes" } else { "NO" }),
        ]);
    }
    let out_of_band = findings.iter().filter(|f| !f.in_band).count();
    let mut text = String::new();
    summary.render_into(&mut text);
    let _ = write!(
        text,
        "\n{} findings, {} outside the acceptance band.\n",
        findings.len(),
        out_of_band
    );
    HarnessOutput { text, findings }
}
