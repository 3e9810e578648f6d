//! Figure 8 — throughput scalability as the number of containers
//! increases (NGINX+PHP-FPM per container, wrk with 1 thread / 5
//! connections each, one 16-core 96 GB host). The logic lives in
//! [`xc_bench::harness::fig8`]; this wrapper parses `--jobs`, prints the
//! result and records findings plus wall time.

use xc_bench::harness::{fig8, measure};
use xc_bench::record;
use xc_bench::runner::{record_bench, Runner};

fn main() {
    let runner = Runner::from_args();
    let (out, entry) = measure("fig8_scalability", &runner, fig8::run);
    print!("{}", out.text);
    record("fig8", &out.findings);
    record_bench(&entry);
}
