//! Verify study — static patch-safety analysis over the Table 1 corpus:
//! coverage, post-patch shape, and the pre-flight redundancy ablation.
//! The logic lives in [`xc_bench::harness::verify_study`]; this wrapper
//! parses `--jobs`, prints the result and records findings plus wall
//! time and analysis-cache hit accounting. Each application's analysis
//! wall time goes to stderr, so stdout stays byte-identical across runs
//! and `--jobs` values.
//!
//! `--profile` appends a per-library worklist profile of the
//! abstract-interpretation fixpoint (pops, merges, phase wall times)
//! and folds the counter totals into the benchmark ledger row.

use std::time::Instant;

use xc_bench::harness::verify_study;
use xc_bench::record;
use xc_bench::runner::{record_bench, BenchEntry, Runner};

fn main() {
    let profile = std::env::args().any(|a| a == "--profile");
    let runner = Runner::from_args();
    let start = Instant::now();
    let out = verify_study::run(&runner);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    print!("{}", out.render());
    for r in &out.rows {
        eprintln!("verify_study: {} analysis {:.1} µs", r.name, r.micros);
    }
    record("verify_study", &out.findings());
    let mut entry = BenchEntry::timing("verify_study", runner.jobs(), wall_ms);
    entry.cache_hits = Some(out.cache_hits());
    entry.cache_misses = Some(out.cache_misses());
    if profile {
        let rows = verify_study::worklist_profiles(&runner);
        print!("\n{}", verify_study::render_worklist_profiles(&rows));
        let total = |f: fn(&verify_study::WorklistProfile) -> f64| rows.iter().map(f).sum::<f64>();
        entry
            .metrics
            .push(("absint_pops", total(|r| r.pops as f64)));
        entry
            .metrics
            .push(("absint_merges", total(|r| r.merges as f64)));
        entry
            .metrics
            .push(("absint_fixpoint_us", total(|r| r.fixpoint_micros)));
        entry
            .metrics
            .push(("absint_states_cloned", total(|r| r.states_cloned as f64)));
        entry
            .metrics
            .push(("absint_states_shared", total(|r| r.states_shared as f64)));
        entry
            .metrics
            .push(("absint_materialize_us", total(|r| r.materialize_micros)));
    }
    record_bench(&entry);
}
