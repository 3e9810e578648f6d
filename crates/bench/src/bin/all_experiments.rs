//! The combined acceptance pass: the findings of the seven table and
//! figure harnesses (`table1`, `fig3_macro`, `fig4_syscall`,
//! `fig5_micro`, `fig6_libos`, `fig8_scalability`, `fig9_loadbalance`)
//! in one summary table, with a nonzero exit status when any finding
//! leaves its acceptance band. `results/all_experiments.json` is the
//! concatenation of those seven results files, in that order.
//!
//! The logic lives in [`xc_bench::harness::all_experiments`]; the
//! Figure 3 grid runs through the deterministic parallel
//! [`Runner`](xc_bench::runner::Runner) (`--jobs N`, default: available
//! parallelism), so stdout is byte-identical across `--jobs` values, and
//! the other six harnesses run serially. Any other argument exits 2.

use xc_bench::harness::all_experiments;
use xc_bench::record;
use xc_bench::runner::{Args, Flag};

fn main() {
    let out = all_experiments::run(&Args::parse(&[Flag::Jobs]).runner());
    print!("{}", out.text);
    record("all_experiments", &out.findings);

    if out.findings.iter().any(|f| !f.in_band) {
        std::process::exit(1);
    }
}
