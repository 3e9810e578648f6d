//! §4.5 — container instantiation latency (extension experiment): the
//! spawn-time model for every platform and both toolstacks. The logic
//! lives in [`xc_bench::harness::spawn_time`]; this wrapper prints the
//! result and records findings. It takes no arguments (any argument
//! exits 2).

use xc_bench::harness::spawn_time;
use xc_bench::record;
use xc_bench::runner::Args;

fn main() {
    Args::parse(&[]);
    let out = spawn_time::run();
    print!("{}", out.text);
    record("spawn_time", &out.findings);
}
