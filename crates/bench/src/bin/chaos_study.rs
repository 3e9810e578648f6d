//! Chaos study — fault rate × platform sweep with conservation checks.
//!
//! Drives the deterministic fault-injection layer (`xc-faults`) through
//! the closed-loop chaos world on three platforms and reports throughput
//! degradation, retry/abandon counts, and watchdog recovery latency.
//! The logic lives in [`xc_bench::harness::chaos`]; this wrapper parses
//! `--jobs`, `--quick` (smaller grid, shorter simulated duration), and
//! `--fault-rate <r>` (pins the fault axis to `[0, r]`), prints the
//! result and records findings.
//!
//! Crash-safe flags (DESIGN.md §4d): `--resume` replays completed cells
//! from the journal, `--fresh` discards it first; both checkpoint each
//! cell and stop gracefully on SIGINT (exit 3, resumable).
//! `--halt-after N` bounds a checkpointing run for testing.

use std::path::Path;

use xc_bench::harness::{chaos, completed_or_exit};
use xc_bench::journal::{ResumeArgs, JOURNAL_ROOT};
use xc_bench::record;
use xc_bench::runner::Runner;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let rate = parse_fault_rate(&args).unwrap_or_else(|e| {
        eprintln!("chaos_study: {e}");
        std::process::exit(2);
    });
    let resume = ResumeArgs::parse(args.iter().skip(1).cloned()).unwrap_or_else(|e| {
        eprintln!("chaos_study: {e}");
        std::process::exit(2);
    });
    let runner = Runner::from_args();
    // Quick and full sweeps are different grids, so they journal under
    // distinct names.
    let name = if quick {
        "chaos_study_quick"
    } else {
        "chaos_study"
    };

    let out = if resume.journaled() {
        let run =
            chaos::run_journaled(&runner, quick, rate, Path::new(JOURNAL_ROOT), name, &resume);
        completed_or_exit(name, run)
    } else {
        chaos::run_with(&runner, quick, rate)
    };
    print!("{}", out.text);
    record("chaos", &out.findings);
}

/// Parses `--fault-rate <r>` / `--fault-rate=<r>`; the rate must be a
/// finite number in `(0, 1]` (0 is always included as the baseline).
fn parse_fault_rate(args: &[String]) -> Result<Option<f64>, String> {
    let mut iter = args.iter().skip(1);
    while let Some(arg) = iter.next() {
        let value = if arg == "--fault-rate" {
            iter.next()
                .ok_or("--fault-rate requires a value, e.g. --fault-rate 0.05")?
                .as_str()
        } else if let Some(v) = arg.strip_prefix("--fault-rate=") {
            v
        } else {
            continue;
        };
        let rate: f64 = value
            .parse()
            .map_err(|_| format!("invalid --fault-rate {value:?}: expected a number"))?;
        if !rate.is_finite() || rate <= 0.0 || rate > 1.0 {
            return Err(format!(
                "invalid --fault-rate {value}: expected a rate in (0, 1]"
            ));
        }
        return Ok(Some(rate));
    }
    Ok(None)
}
