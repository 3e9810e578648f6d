//! The combined acceptance pass: every table/figure reduced to its
//! headline paper-vs-measured findings in one summary table, with a
//! nonzero exit status when any finding leaves its acceptance band.
//!
//! The experiment logic lives in [`xc_bench::harness::all_experiments`]
//! and runs through the deterministic parallel [`Runner`] (`--jobs N`,
//! default: available parallelism); stdout is byte-identical across
//! `--jobs` values.
//!
//! Crash-safe flags (DESIGN.md §4d): `--resume` replays completed
//! measurement groups from the journal, `--fresh` discards it first;
//! both checkpoint each group and stop gracefully on SIGINT (exit 3,
//! resumable). Journaled runs keep the acceptance-band exit status.

use std::path::Path;

use xc_bench::harness::{all_experiments, completed_or_exit};
use xc_bench::journal::{ResumeArgs, JOURNAL_ROOT};
use xc_bench::record;
use xc_bench::runner::Runner;

fn main() {
    let resume = ResumeArgs::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("all_experiments: {e}");
        std::process::exit(2);
    });
    let runner = Runner::from_args();

    let out = if resume.journaled() {
        let root = Path::new(JOURNAL_ROOT);
        let run = all_experiments::run_journaled(&runner, root, "all_experiments", &resume);
        completed_or_exit("all_experiments", run)
    } else {
        all_experiments::run(&runner)
    };
    print!("{}", out.text);
    record("all_experiments", &out.findings);

    if out.findings.iter().any(|f| !f.in_band) {
        std::process::exit(1);
    }
}
