//! Figure 3 — relative performance of macrobenchmarks: NGINX (`ab`),
//! memcached and Redis (`memtier_benchmark`, 1:10 SET:GET), throughput
//! and latency normalized to patched Docker, on both clouds.
//!
//! Each cell comes from a deterministic closed-loop simulation of the
//! benchmark client against the platform's server model. The logic
//! lives in [`xc_bench::harness::fig3`]; this wrapper parses `--jobs`
//! (any other argument exits 2), prints the result and records findings.

use xc_bench::harness::fig3;
use xc_bench::record;
use xc_bench::runner::{Args, Flag};

fn main() {
    let out = fig3::run(&Args::parse(&[Flag::Jobs]).runner());
    print!("{}", out.text);
    record("fig3", &out.findings);
}
