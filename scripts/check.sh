#!/usr/bin/env bash
# Repository hygiene gate: declared dependencies, formatting, lints,
# rustdoc links, the runner determinism suite, the release-mode ISA,
# verifier, ABOM, fault-injection, hypervisor, guest-kernel, platform and
# workload tests (the cost and score pins and gates in the arithmetic the
# benchmark's release binaries use), the golden table, the
# benchmark's own tests and the examples. Fails on an unused dependency,
# any diff, warning, test failure or failing example. The golden
# test (crates/bench/tests/golden.rs) runs every harness binary, the
# grid ones at --jobs 1 and -j 3 and the rest once, and checks its exit
# status, that it left only its results file, its findings and the
# FNV-1a of its stdout and results/*.json against
# crates/bench/golden/outputs.txt; it runs each once more with an
# unknown argument, which must exit 2, print nothing and write nothing,
# and fails if a binary has no case. Each example
# in examples/ runs from an empty directory, must exit 0 and must leave
# that directory empty. Speed is measured by the benchmark in benchmark/
# (see benchmark/README.md); this script only runs its tests. Takes no
# arguments.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -ne 0 ]; then
    echo "usage: $0" >&2
    exit 2
fi

echo "== declared dependencies: each xc-* crate a manifest lists is named in its src/ or tests/ =="
# An unused edge still orders the build and moves Cargo.lock. Both
# manifest forms count: `xc-foo.workspace = true` under [dependencies],
# and a [dependencies.xc-foo] table.
unused=0
for manifest in crates/*/Cargo.toml tests/Cargo.toml; do
    dir=$(dirname "$manifest")
    deps=$(awk '
        /^\[/ { section = $0 }
        section == "[dependencies]" && /^xc-[a-z0-9-]+[ .=]/ { sub(/[ .=].*/, ""); print }
        /^\[dependencies\.xc-[a-z0-9-]+\]/ { gsub(/^\[dependencies\.|\]$/, ""); print }
    ' "$manifest")
    for dep in $deps; do
        name=${dep//-/_}
        if ! grep -rqw "$name" "$dir/src" "$dir/tests" 2>/dev/null; then
            echo "$manifest lists $dep, but nothing in $dir/src or $dir/tests names $name" >&2
            unused=1
        fi
    done
done
if [ "$unused" -ne 0 ]; then
    exit 1
fi

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, all targets, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (workspace, warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== runner determinism suite (incl. panicking_cell_is_isolated_from_the_grid) =="
cargo test -q -p xc-bench --test determinism

echo "== release-mode tests: xc-isa, xc-verify, xc-abom, xc-faults, xc-xen, xc-libos, xc-runtimes and xc-workloads (integer overflow wraps, debug_assert! is off) =="
cargo test --release -q -p xc-isa -p xc-verify -p xc-abom -p xc-faults -p xc-xen -p xc-libos -p xc-runtimes -p xc-workloads

echo "== golden table: every harness binary, the grid ones at --jobs 1 and -j 3, the rest once, each once more with an unknown argument (exit 2, no output) =="
cargo test -q -p xc-bench --test golden

echo "== benchmark tests (the separate workspace in benchmark/) =="
# Nothing above compiles the benchmark, which uses the crates' public API,
# and its equivalence tests pin the verify_corpus rows to verify_study.
# Building it rewrites benchmark/Cargo.lock (the lock predates xc-isa's
# xc-sim dependency and lists edges the manifests no longer declare), so
# the committed lock is put back afterwards and the step leaves
# benchmark/ as it found it.
lock_copy=$(mktemp)
cp benchmark/Cargo.lock "$lock_copy"
bench_status=0
cargo test -q --manifest-path benchmark/Cargo.toml || bench_status=$?
cp "$lock_copy" benchmark/Cargo.lock
rm -f "$lock_copy"
if [ "$bench_status" -ne 0 ]; then
    exit "$bench_status"
fi

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

echo "ok: no unused dependency, formatting clean, no lints, docs link, grid harnesses deterministic at any --jobs, ISA, verifier, ABOM, fault injection, hypervisor, guest kernel, platforms and workloads pass in release, every harness at its golden row (grid binaries at --jobs 1 and -j 3, the rest once) and exiting 2 on an unknown argument, benchmark tests pass, every example runs"
