//! Verify lint — the diagnostics sweep over the Table 1 corpus, plus
//! its coverage gates. The logic lives in
//! [`xc_bench::harness::verify_lint`].
//!
//! The binary prints the table and findings, writes
//! `results/verify_lint.json`, and exits 1 if coverage falls below
//! [`COVERAGE_FLOOR_PCT`] or the `Unknown` count exceeds
//! [`UNKNOWN_CEILING`]. It takes no arguments: any argument is a usage
//! error (exit 2). The golden table (`crates/bench/tests/golden.rs`)
//! pins the full output, so any verifier change that moves a verdict, a
//! rule id, or a reason chain is caught before it lands.

use xc_bench::harness::verify_lint::{
    self, within_unknown_ceiling, COVERAGE_FLOOR_PCT, UNKNOWN_CEILING,
};
use xc_bench::record;
use xc_bench::runner::Args;

fn main() {
    Args::parse(&[]);
    let out = verify_lint::run();

    print!("{}", out.render());
    record("verify_lint", &out.findings());

    println!(
        "coverage {:.1}% (floor {COVERAGE_FLOOR_PCT}%), {} Unknown (ceiling {UNKNOWN_CEILING})",
        out.coverage_pct(),
        out.total_unknown()
    );

    let mut failed = false;
    if out.coverage_pct() < COVERAGE_FLOOR_PCT {
        eprintln!(
            "error: corpus coverage {:.2}% fell below the {COVERAGE_FLOOR_PCT}% floor",
            out.coverage_pct()
        );
        failed = true;
    }
    if !within_unknown_ceiling(out.total_unknown()) {
        eprintln!(
            "error: {} Unknown verdicts exceed the ceiling of {UNKNOWN_CEILING}",
            out.total_unknown()
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
