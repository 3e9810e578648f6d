//! Figure 5 — relative performance of microbenchmarks (higher is
//! better): Execl, File Copy, Pipe Throughput, Context Switching,
//! Process Creation, and iperf, in the paper's four panels
//! (Amazon/Google × single/concurrent), normalized to patched Docker.
//! The logic lives in [`xc_bench::harness::fig5`]; this wrapper prints
//! the result and records findings. It takes no arguments (any
//! argument exits 2).

use xc_bench::harness::fig5;
use xc_bench::record;
use xc_bench::runner::Args;

fn main() {
    Args::parse(&[]);
    let out = fig5::run();
    print!("{}", out.text);
    record("fig5", &out.findings);
}
