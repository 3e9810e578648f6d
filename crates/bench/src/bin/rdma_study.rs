//! §5.7 software-RDMA capability study (extension experiment): message
//! ping-pong latency over TCP sockets vs soft-RDMA verbs, and which
//! platforms can load the module at all. The logic lives in
//! [`xc_bench::harness::rdma_study`]; this wrapper prints the result and
//! records findings. It takes no arguments (any argument exits 2).

use xc_bench::harness::rdma_study;
use xc_bench::record;
use xc_bench::runner::Args;

fn main() {
    Args::parse(&[]);
    let out = rdma_study::run();
    print!("{}", out.text);
    record("rdma_study", &out.findings);
}
