//! Figure 9 — kernel-level load balancing (§5.7): HAProxy on Docker,
//! HAProxy on X-Containers, IPVS NAT, and IPVS direct routing. The logic
//! lives in [`xc_bench::harness::fig9`]; this wrapper prints the result
//! and records findings.

use xc_bench::harness::fig9;
use xc_bench::record;

fn main() {
    let out = fig9::run();
    print!("{}", out.text);
    record("fig9", &out.findings);
}
