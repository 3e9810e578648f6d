//! Verify study — static patch-safety analysis over the Table 1 corpus:
//! coverage, post-patch shape, and the pre-flight redundancy ablation.
//! The logic lives in [`xc_bench::harness::verify_study`]; this wrapper
//! parses `--jobs`, prints the result and records findings. Each
//! application's analysis wall time goes to stderr, so stdout stays
//! byte-identical across runs and `--jobs` values.
//!
//! `--profile` appends a per-library worklist profile of the
//! abstract-interpretation fixpoint (pops, merges, phase wall times).

use xc_bench::harness::verify_study;
use xc_bench::record;
use xc_bench::runner::Runner;

fn main() {
    let profile = std::env::args().any(|a| a == "--profile");
    let runner = Runner::from_args();
    let out = verify_study::run(&runner);
    print!("{}", out.render());
    for r in &out.rows {
        eprintln!("verify_study: {} analysis {:.1} µs", r.name, r.micros);
    }
    record("verify_study", &out.findings());
    if profile {
        let rows = verify_study::worklist_profiles(&runner);
        print!("\n{}", verify_study::render_worklist_profiles(&rows));
    }
}
