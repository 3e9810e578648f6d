//! Verify lint — the diagnostics sweep over the Table 1 corpus, plus
//! the coverage-regression gate `scripts/check.sh` runs on every
//! invocation. The logic lives in [`xc_bench::harness::verify_lint`].
//!
//! Modes:
//!
//! - default: full sweep — print the table and findings, write
//!   `results/verify_lint.json`, upsert a `BENCH_runner.json` row whose
//!   extra metrics (`coverage_pct`, `unknown_sites`, `upgraded_sites`)
//!   record the coverage trajectory, and apply the gates;
//! - `--quick`: gates only (digest, coverage floor, Unknown ceiling) —
//!   no ledger writes, exit 1 on any failure (`check.sh` runs this);
//! - `--json`: print the machine-readable sweep instead of the table;
//! - `--write-golden`: refresh the committed digest at [`GOLDEN_PATH`]
//!   (run from the repository root).
//!
//! The digest gate hashes the serial sweep's full output (rendered
//! text, machine JSON, findings JSON): any verifier change that moves a
//! verdict, a rule id, or a reason chain is caught here before it
//! lands.

use std::time::Instant;

use xc_bench::harness::verify_lint::{
    self, within_unknown_ceiling, COVERAGE_FLOOR_PCT, UNKNOWN_CEILING,
};
use xc_bench::record;
use xc_bench::runner::{record_bench, BenchEntry, Runner};
use xc_sim::fnv::{fnv1a, FNV_OFFSET};

/// Committed golden digest of the serial sweep output, relative to the
/// repository root.
const GOLDEN_PATH: &str = "crates/bench/golden/verify_lint.digest";

fn main() {
    let mut quick = false;
    let mut json = false;
    let mut write_golden = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--json" => json = true,
            "--write-golden" => write_golden = true,
            // Both --jobs forms are handled by Runner::from_args; the
            // space-separated one needs its value consumed here too.
            "--jobs" => {
                args.next();
            }
            other if other.starts_with("--jobs=") => {}
            other => {
                eprintln!("verify_lint: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    // The digest always hashes the serial sweep, independent of --jobs.
    let stable = verify_lint::run(&Runner::new(1)).stable_digest();
    let digest = format!("{:016x}", fnv1a(FNV_OFFSET, stable.as_bytes()));
    if write_golden {
        std::fs::write(GOLDEN_PATH, format!("{digest}\n")).expect("write golden digest");
        println!("verify_lint: wrote golden digest {digest} to {GOLDEN_PATH}");
        return;
    }

    let runner = Runner::from_args();
    let start = Instant::now();
    let out = verify_lint::run(&runner);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    if !quick {
        if json {
            println!("{}", out.machine_json());
        } else {
            print!("{}", out.render());
        }
        record("verify_lint", &out.findings());
        let mut entry = BenchEntry::timing("verify_lint", runner.jobs(), wall_ms);
        entry.metrics = vec![
            ("coverage_pct", out.coverage_pct()),
            ("unknown_sites", out.total_unknown() as f64),
            ("upgraded_sites", out.total_upgraded() as f64),
        ];
        if runner.jobs() > 1 {
            let serial_start = Instant::now();
            let serial = verify_lint::run(&Runner::new(1));
            entry.serial_wall_ms = Some(serial_start.elapsed().as_secs_f64() * 1e3);
            entry.parallel_matches_serial = Some(serial.stable_digest() == out.stable_digest());
        }
        record_bench(&entry);
    }

    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .unwrap_or_else(|e| panic!("read {GOLDEN_PATH} (run --write-golden first): {e}"));
    let golden = golden.trim();
    let digest_ok = digest == golden;
    println!(
        "verify_lint digest {digest} vs golden {golden}: {}",
        if digest_ok { "ok" } else { "MISMATCH" }
    );
    println!(
        "coverage {:.1}% (floor {COVERAGE_FLOOR_PCT}%), {} Unknown (ceiling {UNKNOWN_CEILING})",
        out.coverage_pct(),
        out.total_unknown()
    );

    let mut failed = false;
    if !digest_ok {
        eprintln!("error: lint sweep output differs from the committed golden digest");
        failed = true;
    }
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
