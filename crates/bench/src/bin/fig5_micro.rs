//! Figure 5 — relative performance of microbenchmarks (higher is
//! better): Execl, File Copy, Pipe Throughput, Context Switching,
//! Process Creation, and iperf, in the paper's four panels
//! (Amazon/Google × single/concurrent), normalized to patched Docker.
//! The logic lives in [`xc_bench::harness::fig5`]; this wrapper parses
//! `--jobs`, prints the result and records findings plus wall time.

use xc_bench::harness::{fig5, measure};
use xc_bench::record;
use xc_bench::runner::{record_bench, Runner};

fn main() {
    let runner = Runner::from_args();
    let (out, entry) = measure("fig5_micro", &runner, fig5::run);
    print!("{}", out.text);
    record("fig5", &out.findings);
    record_bench(&entry);
}
