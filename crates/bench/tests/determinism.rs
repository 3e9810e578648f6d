//! The runner's core contract: every grid harness produces
//! byte-identical output at every `--jobs` value. These tests exercise
//! the grid harnesses end-to-end (text *and* serialized findings; the
//! cluster and chaos studies at their quick size, verify-study on a
//! reduced slice) at 1, 2 and 4 workers on whatever host runs the suite
//! — worker count, not host core count, is what the contract quantifies
//! over. `tests/golden.rs` pins the binaries' bytes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use xc_bench::findings_json;
use xc_bench::harness::{chaos, cluster, fig3, verify_study};
use xc_bench::runner::Runner;
use xcontainers::prelude::{ClosedLoopCache, FaultPlan, FaultRates, Rng};

/// Byte-compares one harness's full output across worker counts.
fn assert_jobs_invariant(run: impl Fn(&Runner) -> (String, String)) {
    let (text1, json1) = run(&Runner::new(1));
    for jobs in [2, 4] {
        let (text, json) = run(&Runner::new(jobs));
        assert_eq!(text, text1, "text diverged at --jobs {jobs}");
        assert_eq!(json, json1, "findings diverged at --jobs {jobs}");
    }
}

/// The closed-loop macrobenchmark grid — per-worker shard worlds, one
/// shared memoization cache racing across cells — must still render
/// byte-identically at every worker count: results are a function of
/// the derived cost table alone, never of cache scheduling.
#[test]
fn fig3_is_jobs_invariant() {
    assert_jobs_invariant(|r| {
        let out = fig3::run(r);
        (out.text, findings_json(&out.findings))
    });
}

/// One cache shared across *runs* must not change a byte either: a warm
/// cache answers from values the cold run computed.
#[test]
fn fig3_shared_cache_is_run_invariant() {
    let cache = ClosedLoopCache::new();
    let cold = fig3::run_with(&Runner::new(2), &cache);
    let (hits0, misses0) = (cache.hits(), cache.misses());
    let warm = fig3::run_with(&Runner::new(2), &cache);
    assert_eq!(cold.text, warm.text);
    assert_eq!(findings_json(&cold.findings), findings_json(&warm.findings));
    let (hits, misses) = (cache.hits() - hits0, cache.misses() - misses0);
    assert_eq!(misses, 0, "a warm cache re-simulates nothing");
    assert!(hits > 0);
}

/// The cluster study's (platform × host-chunk) grid merges
/// [`ClusterResult`]s in host-index order, so the quick configuration
/// must render byte-identically at every worker count.
///
/// [`ClusterResult`]: xcontainers::prelude::ClusterResult
#[test]
fn cluster_quick_is_jobs_invariant() {
    assert_jobs_invariant(|r| {
        let out = cluster::run(r, true);
        (out.text, findings_json(&out.findings))
    });
}

/// A reduced verify-study pass (300 syscalls/app instead of 3000) must
/// render the same tables and findings at every worker count,
/// including the RNG-dependent ablation columns fed by per-cell
/// substreams.
#[test]
fn verify_study_slice_is_jobs_invariant() {
    assert_jobs_invariant(|r| {
        let out = verify_study::run_with(r, 300, verify_study::SEED);
        (out.render(), findings_json(&out.findings()))
    });
}

/// The verify-study cache must observe hits (the offline pre-flight
/// re-reads the coverage pass's analysis) at any worker count.
#[test]
fn verify_study_slice_reports_cache_hits() {
    let out = verify_study::run_with(&Runner::new(4), 300, verify_study::SEED);
    assert!(out.cache_hits() > 0, "expected analysis-cache hits");
    assert!(out.cache_hit_rate() > 0.0);
}

/// The chaos sweep — faults, retries, watchdog restarts and all — must
/// be byte-identical at every worker count (the quick grid keeps the
/// suite fast; each cell still runs a full second of simulated time).
#[test]
fn chaos_quick_sweep_is_jobs_invariant() {
    assert_jobs_invariant(|r| {
        let out = chaos::run_with(r, true);
        (out.text, findings_json(&out.findings))
    });
}

/// Satellite property: a [`FaultPlan`]'s schedule digest is a pure
/// function of `(seed, rates)` — identical when the per-cell digests are
/// computed at 1, 2 or 8 workers, and identical under any shard-merge
/// ordering (here: forward, reverse, and stride-interleaved), because
/// each cell derives its own substreams rather than sharing a cursor.
#[test]
fn fault_plan_schedule_is_jobs_and_merge_order_invariant() {
    const CELLS: usize = 16;
    const DRAWS: u32 = 256;
    let digest_for = |cell: usize| {
        let seed = Rng::substream(2019, cell as u64).next_u64();
        FaultPlan::schedule_digest(seed, FaultRates::scaled(0.01), DRAWS)
    };

    let reference: Vec<u64> = Runner::new(1).run(CELLS, digest_for);
    for jobs in [2, 8] {
        let digests: Vec<u64> = Runner::new(jobs).run(CELLS, digest_for);
        assert_eq!(digests, reference, "digests diverged at --jobs {jobs}");
    }

    // Merge-order independence: computing cells in any order yields the
    // same per-cell digest, so any shard partition merges identically.
    let mut reversed: Vec<(usize, u64)> = (0..CELLS).rev().map(|c| (c, digest_for(c))).collect();
    reversed.sort_by_key(|&(c, _)| c);
    let mut strided: Vec<(usize, u64)> = (0..CELLS)
        .filter(|c| c % 2 == 0)
        .chain((0..CELLS).filter(|c| c % 2 == 1))
        .map(|c| (c, digest_for(c)))
        .collect();
    strided.sort_by_key(|&(c, _)| c);
    for (order, digests) in [("reverse", reversed), ("stride", strided)] {
        let merged: Vec<u64> = digests.into_iter().map(|(_, d)| d).collect();
        assert_eq!(merged, reference, "digests diverged under {order} merge");
    }
}

/// A cell that panics must not take down the rest of the grid: every
/// cell still runs exactly once, and only then does the runner panic,
/// naming each failed cell and its message in index order — at any
/// worker count.
#[test]
fn panicking_cell_is_isolated_from_the_grid() {
    for jobs in [1, 4] {
        let runs: Vec<AtomicUsize> = (0..10).map(|_| AtomicUsize::new(0)).collect();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            Runner::new(jobs).run(runs.len(), |i| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                assert!(i != 3 && i != 7, "cell {i} always panics");
                i * 10
            })
        }))
        .expect_err("a panicking cell must fail the grid");
        let message = payload
            .downcast_ref::<String>()
            .expect("the runner panics with a formatted message");
        assert_eq!(
            message,
            "2 of 10 cells failed:\n  cell 3: cell 3 always panics\n  cell 7: cell 7 always panics",
            "at --jobs {jobs}"
        );
        let counts: Vec<usize> = runs.iter().map(|r| r.load(Ordering::Relaxed)).collect();
        assert_eq!(counts, vec![1; 10], "each cell runs once at --jobs {jobs}");
    }
}
