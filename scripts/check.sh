#!/usr/bin/env bash
# Repository hygiene gate: formatting, lints, rustdoc links, the runner
# determinism suite and the golden table. Fails on any diff, warning or test
# failure. The golden test (crates/bench/tests/golden.rs) runs every
# harness binary at --jobs 1 and -j 3 and checks its exit status, that
# it left only its results file, its findings and the FNV-1a of its
# stdout and results/*.json against crates/bench/golden/outputs.txt.
# Speed is measured by the benchmark in benchmark/ (see
# benchmark/README.md). Takes no arguments.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -ne 0 ]; then
    echo "usage: $0" >&2
    exit 2
fi

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, all targets, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (workspace, warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== runner determinism suite =="
cargo test -q -p xc-bench --test determinism

echo "== panic isolation smoke: a poisoned cell must not abort the grid =="
cargo test -q -p xc-bench --test determinism panicking_cell_is_isolated_from_the_grid

echo "== golden table: every harness binary, --jobs 1 and 3 =="
cargo test -q -p xc-bench --test golden

echo "ok: formatting clean, no lints, docs link, deterministic at any --jobs, every harness at its golden row"
