//! Pins each workload to the shipped harness it mirrors, at the
//! harness seeds and quick shapes.

use xc_bench::harness::{cluster, verify_study};
use xc_bench::runner::Runner;
use xc_benchmark::workloads::{chaos_cells, verify_rows, ClusterGrid, Size, Workload};

#[test]
fn cluster_open_cells_equal_the_cluster_study_grid() {
    let ours = ClusterGrid::new(Size::Quick, 42);
    let theirs = cluster::Grid::new(true);
    assert_eq!(ours.cells(), theirs.cells());
    for i in 0..ours.cells() {
        assert_eq!(ours.cell(i), theirs.cell(i), "cell {i}");
    }
}

#[test]
fn verify_corpus_rows_equal_the_verify_study() {
    let runner = Runner::new(1);
    let ours = verify_rows(Size::Quick, 2019, &runner);
    let theirs = verify_study::run_with(&runner, 300, 2019);
    assert_eq!(ours.len(), theirs.rows.len());
    for (a, b) in ours.iter().zip(&theirs.rows) {
        assert_eq!(a.name, b.name);
        assert_eq!(
            (
                a.sites,
                a.safe,
                a.unsafe_,
                a.unknown,
                a.v1_unknown,
                a.upgraded
            ),
            (
                b.sites,
                b.safe,
                b.unsafe_,
                b.unknown,
                b.v1_unknown,
                b.upgraded
            ),
            "{} verdicts",
            a.name
        );
        assert_eq!(
            (
                a.reverify_ok,
                a.detours,
                a.detour_patched,
                a.recovered,
                a.rejections
            ),
            (
                b.reverify_ok,
                b.detours,
                b.detour_patched,
                b.recovered,
                b.rejections
            ),
            "{} patches",
            a.name
        );
        assert_eq!(
            (
                a.study_cache_hits,
                a.study_cache_misses,
                a.kernel_cache_hits,
                a.kernel_cache_misses
            ),
            (
                b.study_cache_hits,
                b.study_cache_misses,
                b.kernel_cache_hits,
                b.kernel_cache_misses
            ),
            "{} caches",
            a.name
        );
    }
}

#[test]
fn closed_loop_hits_15_and_misses_45() {
    let out = Workload::ClosedLoop.run(Size::Quick, 7, &Runner::new(1));
    assert!(out.problems.is_empty(), "{:?}", out.problems);
    assert_eq!(out.count("http.calls"), 60.0);
    assert_eq!(
        (out.count("http.hits"), out.count("http.misses")),
        (15.0, 45.0)
    );
}

#[test]
fn chaos_cells_conserve_and_render_identically_twice() {
    let runner = Runner::new(1);
    let cells = chaos_cells(Size::Quick, 2019, &runner);
    assert_eq!(cells.len(), 12);
    for c in &cells {
        assert!(
            c.conserved.is_ok(),
            "{} @ {}: {:?}",
            c.label,
            c.rate,
            c.conserved
        );
    }
    assert!(
        cells
            .iter()
            .any(|c| c.result.fault_stats.injected_total() > 0),
        "the faulty cells inject faults"
    );
    let a = Workload::ChaosFaults.run(Size::Quick, 2019, &runner);
    let b = Workload::ChaosFaults.run(Size::Quick, 2019, &runner);
    assert!(a.problems.is_empty(), "{:?}", a.problems);
    assert_eq!(a.table, b.table);
}

#[test]
fn every_workload_is_worker_count_invariant() {
    // The benchmark's `--jobs nproc` comparison checks its tables against
    // the serial golden ones, so the parallel path must agree.
    for w in Workload::ALL {
        let serial = w.run(Size::Quick, w.default_seed(), &Runner::new(1));
        let parallel = w.run(Size::Quick, w.default_seed(), &Runner::new(3));
        assert_eq!(serial.table, parallel.table, "{}", w.name());
        assert!(
            serial.problems.is_empty(),
            "{}: {:?}",
            w.name(),
            serial.problems
        );
    }
}
