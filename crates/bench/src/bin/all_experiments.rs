//! The combined acceptance pass: every table/figure reduced to its
//! headline paper-vs-measured findings in one summary table, with a
//! nonzero exit status when any finding leaves its acceptance band.
//!
//! The experiment logic lives in [`xc_bench::harness::all_experiments`]
//! and runs through the deterministic parallel [`Runner`] (`--jobs N`,
//! default: available parallelism); stdout is byte-identical across
//! `--jobs` values.

use xc_bench::harness::all_experiments;
use xc_bench::record;
use xc_bench::runner::Runner;

fn main() {
    let out = all_experiments::run(&Runner::from_args());
    print!("{}", out.text);
    record("all_experiments", &out.findings);

    if out.findings.iter().any(|f| !f.in_band) {
        std::process::exit(1);
    }
}
