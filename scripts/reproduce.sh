#!/usr/bin/env bash
# Regenerates every table and figure of the X-Containers evaluation and
# collects machine-readable results under results/.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== building =="
cargo build --workspace --release

echo "== tests =="
cargo test --workspace

for bin in table1 fig3_macro fig4_syscall fig5_micro fig6_libos \
           fig8_scalability fig9_loadbalance spawn_time ablations \
           security_matrix rdma_study verify_study \
           chaos_study cluster_study; do
  echo
  echo "================ $bin ================"
  cargo run -q --release -p xc-bench --bin "$bin"
done

echo
echo "================ acceptance pass ================"
cargo run -q --release -p xc-bench --bin all_experiments
echo "JSON results in results/"
