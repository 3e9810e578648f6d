//! Verify study — static patch-safety analysis over the Table 1 corpus:
//! coverage, post-patch shape, the pre-flight redundancy ablation, and
//! the lint diagnostics of every `Unknown`, `Unsafe` or upgraded site.
//! The logic lives in [`xc_bench::harness::verify_study`]; this wrapper
//! parses `--jobs`, prints the result and records findings, and exits 1
//! when any finding is outside its band. Each application's analysis
//! wall time goes to stderr, so stdout stays byte-identical across runs
//! and `--jobs` values.
//!
//! `--profile` also writes a per-library profile of the verifier
//! pipeline to stderr: the median wall time of each stage (disassembly,
//! CFG, dataflow, call graph, summaries, abstract interpretation,
//! judging), with the sweep, block and worklist-pop counts. Any other
//! argument exits 2.

use xc_bench::harness::verify_study;
use xc_bench::record;
use xc_bench::runner::{Args, Flag};

fn main() {
    let args = Args::parse(&[Flag::Jobs, Flag::Profile]);
    let runner = args.runner();
    let out = verify_study::run(&runner);
    print!("{}", out.render());
    for r in &out.rows {
        eprintln!("verify_study: {} analysis {:.1} µs", r.name, r.micros);
    }
    let findings = out.findings();
    record("verify_study", &findings);
    if args.profile {
        let rows = verify_study::stage_profiles(&runner);
        eprint!("\n{}", verify_study::render_stage_profiles(&rows));
    }

    if findings.iter().any(|f| !f.in_band) {
        std::process::exit(1);
    }
}
