#!/usr/bin/env bash
# Repository hygiene gate: formatting, lints, rustdoc links, the runner
# determinism suite, the golden table and the examples. Fails on any diff,
# warning, test failure or failing example. The golden test
# (crates/bench/tests/golden.rs) runs every harness binary at --jobs 1 and
# -j 3 and checks its exit status, that it left only its results file, its
# findings and the FNV-1a of its stdout and results/*.json against
# crates/bench/golden/outputs.txt. Each example in examples/ runs from an
# empty directory, must exit 0 and must leave that directory empty.
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

echo "== examples: each exits 0 and writes no file =="
root=$PWD
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
for src in examples/*.rs; do
    example=$(basename "$src" .rs)
    echo "-- $example"
    (cd "$workdir" && cargo run -q --manifest-path "$root/Cargo.toml" --example "$example" > /dev/null)
    if [ -n "$(ls -A "$workdir")" ]; then
        echo "example $example wrote files:" >&2
        ls -A "$workdir" >&2
        exit 1
    fi
done

echo "ok: formatting clean, no lints, docs link, deterministic at any --jobs, every harness at its golden row, every example runs"
