//! # xc-benchmark — a repeatable benchmark of the X-Containers simulator
//!
//! Measures the simulator from outside: four workloads built from the
//! layers' public entry points and driven through
//! `xc_bench::runner::Runner::new(1)`, with a span around every call into
//! a layer. All times are host times (iterations in thread CPU time,
//! spans in wall time); simulated statistics are checked as outputs
//! (against golden tables) and never used as metrics.
//!
//! * [`workloads`] — `cluster_open`, `closed_loop`, `chaos_faults`,
//!   `verify_corpus`;
//! * [`clock`] — thread CPU time, the clock iterations are timed with;
//! * [`probe`] — the fixed CPU probe each timed round is normalised by;
//! * [`trace`] — the span recorder, layer self times and Chrome traces;
//! * [`layers`] — metric definitions and the per-layer metrics;
//! * [`summary`] — quartiles and the regression verdict;
//! * [`report`] — result files and `--compare`.
//!
//! The `xc-benchmark` binary ties them together; see the README.

// The one exception is the CPU-clock call in `clock`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod layers;
pub mod probe;
pub mod report;
pub mod summary;
pub mod trace;
pub mod workloads;
