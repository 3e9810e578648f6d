#!/usr/bin/env bash
# Repository hygiene gate: formatting, lints, the runner determinism
# suite and the golden table. Fails on any diff, warning or test
# failure. The golden test (crates/bench/tests/golden.rs) runs every
# harness binary at --jobs 1 and --jobs 3 and checks its exit status,
# its findings and the FNV-1a of its stdout and results/*.json against
# crates/bench/golden/outputs.txt, including a halted-then-resumed
# cluster_study --quick run.
#
# `--bench` additionally runs the perf section: the queue_bench churn
# races and the wall-time regression gate (`bench_gate`) over a fresh
# BENCH_runner.json versus the committed trajectory. Set
# XC_BENCH_GATE=off to disarm the regression comparison on
# timing-noisy hosts.
set -euo pipefail
cd "$(dirname "$0")/.."

bench=0
for arg in "$@"; do
    case "$arg" in
        --bench) bench=1 ;;
        *) echo "usage: $0 [--bench]" >&2; exit 2 ;;
    esac
done

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, all targets, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== runner determinism suite =="
cargo test -q -p xc-bench --test determinism

echo "== panic isolation smoke: a poisoned cell must not abort the grid =="
cargo test -q -p xc-bench --test determinism panicking_cell_is_isolated_from_the_grid

echo "== golden table: every harness binary, --jobs 1 and 3, halt and resume =="
cargo test -q -p xc-bench --test golden

if [ "$bench" -eq 1 ]; then
    tmp=$(mktemp -d)
    # Every harness run below upserts its row into the tracked ledger;
    # put the file back as it was on exit so a green check leaves the
    # tree clean. The gate's baseline is the committed trajectory.
    cp BENCH_runner.json "$tmp/ledger.json"
    trap 'cp "$tmp/ledger.json" BENCH_runner.json; rm -rf "$tmp"' EXIT
    git show HEAD:BENCH_runner.json >"$tmp/bench-baseline.json" 2>/dev/null \
        || cp BENCH_runner.json "$tmp/bench-baseline.json"

    echo "== perf smoke: queue_bench --quick --sparse (heap vs calendar churn races) =="
    cargo build -q --release -p xc-bench --bin queue_bench
    target/release/queue_bench --quick --sparse

    echo "== perf regression gate: fresh wall times vs committed BENCH_runner.json =="
    cargo build -q --release -p xc-bench --bin fig3_macro --bin all_experiments \
        --bin cluster_study --bin chaos_study --bin verify_lint --bin bench_gate
    # Refresh the gated harnesses at the jobs values the committed
    # trajectory was recorded at, so the gate compares like with like
    # (each binary records the --jobs it actually ran with).
    target/release/fig3_macro --jobs 2 >/dev/null
    target/release/all_experiments --jobs 2 >/dev/null
    target/release/cluster_study --jobs 1 >/dev/null
    target/release/chaos_study --jobs 1 >/dev/null
    target/release/verify_lint --jobs 1 >/dev/null
    target/release/bench_gate --baseline "$tmp/bench-baseline.json"
    echo "ok: perf section green (churn races, wall-time budget)"
fi

echo "ok: formatting clean, no lints, deterministic at any --jobs, every harness at its golden row"
