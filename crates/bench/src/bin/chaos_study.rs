//! Chaos study — fault rate × platform sweep with conservation checks.
//!
//! Drives the deterministic fault-injection layer (`xc-faults`) through
//! the closed-loop chaos world on three platforms and reports throughput
//! degradation, retry/abandon counts, and watchdog recovery latency.
//! The logic lives in [`xc_bench::harness::chaos`]; this wrapper parses
//! `--jobs` and `--quick` (smaller grid, shorter simulated duration),
//! prints the result and records findings. Any other argument exits 2.

use xc_bench::harness::chaos;
use xc_bench::record;
use xc_bench::runner::{Args, Flag};

fn main() {
    let args = Args::parse(&[Flag::Jobs, Flag::Quick]);
    let out = chaos::run_with(&args.runner(), args.quick);
    print!("{}", out.text);
    record("chaos", &out.findings);
}
