//! Cluster study — per-host container density, tail latency and drop
//! rate for 100+ simulated hosts × 1000+ X-Container/Docker/gVisor
//! domains under open-loop traffic from over a million modelled clients
//! (extension; DESIGN.md §4d).
//!
//! Flags: `--quick` runs the 8-host CI smoke configuration instead of
//! the full 120-host study; `--jobs N` controls the worker pool (the
//! output is byte-identical at every value).
//!
//! Crash-safe flags (DESIGN.md §4d): `--resume` replays completed cells
//! from the journal and executes only the missing ones; `--fresh`
//! discards any journal first. Both checkpoint each cell as it
//! completes and stop gracefully on SIGINT (exit 3, resumable).
//! `--halt-after N` bounds a checkpointing run for testing.

use std::path::Path;

use xc_bench::harness::{cluster, completed_or_exit};
use xc_bench::journal::{ResumeArgs, JOURNAL_ROOT};
use xc_bench::record;
use xc_bench::runner::Runner;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let resume = ResumeArgs::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("cluster_study: {e}");
        std::process::exit(2);
    });
    let runner = Runner::from_args();
    let name = if quick {
        "cluster_study_quick"
    } else {
        "cluster_study"
    };

    let out = if resume.journaled() {
        let run = cluster::run_journaled(&runner, quick, Path::new(JOURNAL_ROOT), name, &resume);
        completed_or_exit(name, run)
    } else {
        cluster::run(&runner, quick)
    };
    print!("{}", out.text);
    record("cluster", &out.findings);
}
