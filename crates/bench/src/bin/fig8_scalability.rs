//! Figure 8 — throughput scalability as the number of containers
//! increases (NGINX+PHP-FPM per container, wrk with 1 thread / 5
//! connections each, one 16-core 96 GB host). The logic lives in
//! [`xc_bench::harness::fig8`]; this wrapper prints the result and
//! records findings.

use xc_bench::harness::fig8;
use xc_bench::record;

fn main() {
    let out = fig8::run();
    print!("{}", out.text);
    record("fig8", &out.findings);
}
