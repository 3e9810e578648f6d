//! Cluster study — per-host container density, tail latency and drop
//! rate for 100+ simulated hosts × 1000+ X-Container/Docker/gVisor
//! domains under open-loop traffic from over a million modelled clients
//! (extension; DESIGN.md §4d).
//!
//! Flags: `--quick` runs the 8-host CI smoke configuration instead of
//! the full 120-host study; `--jobs N` controls the worker pool (the
//! output is byte-identical at every value). Any other argument exits 2.

use xc_bench::harness::cluster;
use xc_bench::record;
use xc_bench::runner::{Args, Flag};

fn main() {
    let args = Args::parse(&[Flag::Jobs, Flag::Quick]);
    let out = cluster::run(&args.runner(), args.quick);
    print!("{}", out.text);
    record("cluster", &out.findings);
}
