//! Figure 4 — relative system call throughput (higher is better).
//!
//! UnixBench System Call on all ten configurations, single and
//! concurrent (4 copies), on both clouds, normalized to patched Docker —
//! the paper's exact presentation. The logic lives in
//! [`xc_bench::harness::fig4`]; this wrapper prints the result and
//! records findings.

use xc_bench::harness::fig4;
use xc_bench::record;

fn main() {
    let out = fig4::run();
    print!("{}", out.text);
    record("fig4", &out.findings);
}
