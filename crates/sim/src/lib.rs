//! # xc-sim — deterministic simulation substrate for the X-Containers reproduction
//!
//! This crate provides the foundation every other crate in the workspace
//! builds on:
//!
//! * [`time`] — the [`Nanos`] simulated-time newtype,
//! * [`rng`] — deterministic pseudo-random number generation
//!   ([`Rng`], SplitMix64 seeding + xoshiro256\*\* stream),
//! * [`engine`] — a deterministic discrete-event simulation engine,
//! * [`calendar`] — the engine's pending events, kept in one sorted
//!   buffer, and the binary heap it is tested against,
//! * [`fnv`] — the stable FNV-1a hash behind digests and fingerprints,
//! * [`stats`] — log-bucketed latency histograms and the shard split,
//! * [`cost`] — the primitive cost model all container architectures are
//!   composed from,
//! * [`report`] — text tables and a minimal JSON emitter for experiment
//!   harness output.
//!
//! The entire simulation is **single-threaded and deterministic**: every
//! source of randomness flows from an explicit seed, and simultaneous events
//! are ordered by insertion sequence. Running an experiment twice produces
//! byte-identical tables, which is what makes the figure-regeneration
//! harnesses in `xc-bench` reproducible.
//!
//! # Example
//!
//! ```
//! use xc_sim::time::Nanos;
//! use xc_sim::cost::CostModel;
//!
//! let costs = CostModel::skylake_cloud();
//! // A trap-based syscall is far more expensive than a function call:
//! assert!(costs.syscall_trap > costs.function_call);
//! assert_eq!(Nanos::from_micros(2).as_nanos(), 2_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calendar;
pub mod cost;
pub mod engine;
pub mod fnv;
pub mod report;
pub mod rng;
pub mod stats;
pub mod time;

pub use cost::CostModel;
pub use engine::{EventQueue, Simulation, World};
pub use rng::Rng;
pub use stats::Histogram;
pub use time::Nanos;
