//! Figure 6 — throughput comparison for Unikernel (U), Graphene (G) and
//! X-Container (X) on the local cluster: NGINX with 1 and 4 workers, and
//! the 2×PHP+MySQL topologies of Figure 7. The logic lives in
//! [`xc_bench::harness::fig6`]; this wrapper prints the result and
//! records findings. It takes no arguments (any argument exits 2).

use xc_bench::harness::fig6;
use xc_bench::record;
use xc_bench::runner::Args;

fn main() {
    Args::parse(&[]);
    let out = fig6::run();
    print!("{}", out.text);
    record("fig6", &out.findings);
}
