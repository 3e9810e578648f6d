//! # xc-faults — deterministic fault injection & graceful degradation
//!
//! The paper's robustness story is that components fail *safely*: the
//! X-Kernel validates and rejects bad hypercalls (§4.1), and ABOM keeps
//! the `syscall` trap as a permanent fallback whenever a site cannot be
//! safely rewritten (§4.4). This crate exercises those degradation paths
//! under sustained, *reproducible* failure:
//!
//! * [`plan`] — a seeded [`FaultPlan`] that decides, per typed
//!   [`FaultKind`], whether each potential fault fires. Every kind draws
//!   from its own [`xc_sim::rng::Rng`] substream, so a schedule is a pure
//!   function of `(seed, kind, occurrence index)` — byte-identical at any
//!   `--jobs` value and under any shard-merge order.
//! * [`backoff`] — bounded retry with exponential backoff in *simulated*
//!   time ([`RetryPolicy`]).
//! * [`watchdog`] — progress-based stuck-vCPU detection ([`Watchdog`]):
//!   a domain that stops completing work past the timeout is restarted,
//!   with the full restart cost charged and the recovery latency
//!   recorded.
//! * [`degrade`] — the ABOM degradation policy: a site whose patch is
//!   vetoed or rolled back ([`xc_abom::patcher::Abom::rollback`]) is
//!   permanently demoted to the trap route
//!   ([`xc_libos::syscalls::DispatchTable::demote`]).
//! * [`chaos`] — a closed-loop DES world wiring all of the above through
//!   the *real* [`xc_xen::events::EventChannels`] and
//!   [`xc_xen::grant::GrantTable`], with conservation invariants (no
//!   request lost, every event delivered/dropped/pending) checked by
//!   [`ChaosResult::check_conservation`].
//!
//! Faults change *when* things happen and *which path* handles them, but
//! never lose work: that is the property the `chaos_study` bench sweeps
//! and the determinism suite pins.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod backoff;
pub mod chaos;
pub mod degrade;
pub mod plan;
pub mod watchdog;

pub use backoff::RetryPolicy;
pub use chaos::{run_chaos, ChaosParams, ChaosResult};
pub use degrade::{warm_up, WarmupReport};
pub use plan::{FaultKind, FaultPlan, FaultRates, FaultStats, FAULT_KINDS};
pub use watchdog::Watchdog;
