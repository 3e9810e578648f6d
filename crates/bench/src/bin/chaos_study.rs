//! Chaos study — fault rate × platform sweep with conservation checks.
//!
//! Drives the deterministic fault-injection layer (`xc-faults`) through
//! the closed-loop chaos world on three platforms and reports throughput
//! degradation, retry/abandon counts, and watchdog recovery latency.
//! The logic lives in [`xc_bench::harness::chaos`]; this wrapper parses
//! `--jobs` and `--quick` (smaller grid, shorter simulated duration),
//! prints the result and records findings.

use xc_bench::harness::chaos;
use xc_bench::record;
use xc_bench::runner::Runner;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let out = chaos::run_with(&Runner::from_args(), quick);
    print!("{}", out.text);
    record("chaos", &out.findings);
}
