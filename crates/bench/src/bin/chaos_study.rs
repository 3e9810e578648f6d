//! Chaos study — fault rate × platform sweep with conservation checks.
//!
//! Drives the deterministic fault-injection layer (`xc-faults`) through
//! the closed-loop chaos world on three platforms and reports throughput
//! degradation, retry/abandon counts, and watchdog recovery latency.
//! The logic lives in [`xc_bench::harness::chaos`]; this wrapper parses
//! `--jobs`, `--quick` (smaller grid, shorter simulated duration), and
//! `--fault-rate <r>` (pins the fault axis to `[0, r]`), prints the
//! result and records findings.

use xc_bench::harness::chaos;
use xc_bench::record;
use xc_bench::runner::Runner;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let rate = parse_fault_rate(&args).unwrap_or_else(|e| {
        eprintln!("chaos_study: {e}");
        std::process::exit(2);
    });
    let out = chaos::run_with(&Runner::from_args(), quick, rate);
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
