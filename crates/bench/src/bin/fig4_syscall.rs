//! Figure 4 — relative system call throughput (higher is better).
//!
//! UnixBench System Call on all ten configurations, single and
//! concurrent (4 copies), on both clouds, normalized to patched Docker —
//! the paper's exact presentation. The logic lives in
//! [`xc_bench::harness::fig4`]; this wrapper parses `--jobs`, prints the
//! result and records findings plus wall time.

use xc_bench::harness::{fig4, measure};
use xc_bench::record;
use xc_bench::runner::{record_bench, Runner};

fn main() {
    let runner = Runner::from_args();
    let (out, entry) = measure("fig4_syscall", &runner, fig4::run);
    print!("{}", out.text);
    record("fig4", &out.findings);
    record_bench(&entry);
}
