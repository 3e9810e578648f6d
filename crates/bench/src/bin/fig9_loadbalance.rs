//! Figure 9 — kernel-level load balancing (§5.7): HAProxy on Docker,
//! HAProxy on X-Containers, IPVS NAT, and IPVS direct routing. The logic
//! lives in [`xc_bench::harness::fig9`]; this wrapper prints the result
//! and records findings. It takes no arguments (any argument exits 2).

use xc_bench::harness::fig9;
use xc_bench::record;
use xc_bench::runner::Args;

fn main() {
    Args::parse(&[]);
    let out = fig9::run();
    print!("{}", out.text);
    record("fig9", &out.findings);
}
