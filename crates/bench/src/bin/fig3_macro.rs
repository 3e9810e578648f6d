//! Figure 3 — relative performance of macrobenchmarks: NGINX (`ab`),
//! memcached and Redis (`memtier_benchmark`, 1:10 SET:GET), throughput
//! and latency normalized to patched Docker, on both clouds.
//!
//! Each cell comes from a deterministic closed-loop simulation of the
//! benchmark client against the platform's server model. The logic
//! lives in [`xc_bench::harness::fig3`]; this wrapper parses `--jobs`,
//! prints the result and records findings plus wall time and the
//! counters of the fresh closed-loop cache the grid ran behind.

use xc_bench::harness::{fig3, measure};
use xc_bench::record;
use xc_bench::runner::{record_bench, Runner};

fn main() {
    let runner = Runner::from_args();
    let (out, entry) = measure("fig3_macro", &runner, fig3::run);
    print!("{}", out.text);
    record("fig3", &out.findings);
    record_bench(&entry);
}
