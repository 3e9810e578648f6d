//! §4.5 — container instantiation latency (extension experiment): the
//! spawn-time model for every platform and both toolstacks. The logic
//! lives in [`xc_bench::harness::spawn_time`]; this wrapper prints the
//! result and records findings.

use xc_bench::harness::spawn_time;
use xc_bench::record;

fn main() {
    let out = spawn_time::run();
    print!("{}", out.text);
    record("spawn_time", &out.findings);
}
