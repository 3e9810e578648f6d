//! Table 1 — Evaluation of the Automatic Binary Optimization Module.
//!
//! Runs each application's wrapper-site mix through the real ABOM
//! patcher and interpreter, counting trapped vs function-call syscalls
//! exactly as the paper's X-Kernel counter does (§5.2). The logic lives
//! in [`xc_bench::harness::table1`]; this wrapper prints the result and
//! records findings.

use xc_bench::harness::table1;
use xc_bench::record;

fn main() {
    let out = table1::run();
    print!("{}", out.text);
    record("table1", &out.findings);
}
