//! §5.7 software-RDMA capability study (extension experiment): message
//! ping-pong latency over TCP sockets vs soft-RDMA verbs, and which
//! platforms can load the module at all. The logic lives in
//! [`xc_bench::harness::rdma_study`]; this wrapper prints the result and
//! records findings.

use xc_bench::harness::rdma_study;
use xc_bench::record;

fn main() {
    let out = rdma_study::run();
    print!("{}", out.text);
    record("rdma_study", &out.findings);
}
