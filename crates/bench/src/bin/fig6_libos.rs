//! Figure 6 — throughput comparison for Unikernel (U), Graphene (G) and
//! X-Container (X) on the local cluster: NGINX with 1 and 4 workers, and
//! the 2×PHP+MySQL topologies of Figure 7. The logic lives in
//! [`xc_bench::harness::fig6`]; this wrapper prints the result and
//! records findings.

use xc_bench::harness::fig6;
use xc_bench::record;

fn main() {
    let out = fig6::run();
    print!("{}", out.text);
    record("fig6", &out.findings);
}
