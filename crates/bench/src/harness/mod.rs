//! Experiment harness logic, one module per binary.
//!
//! Every binary in `src/bin/` is the same thin wrapper: it parses its
//! flags, calls the matching `run` function here, prints the returned
//! text, and records the findings. Keeping the logic in the library
//! makes it callable from the determinism integration tests and from
//! [`all_experiments`], which is the union of the seven table and figure
//! harnesses' findings.
//!
//! A harness that draws a figure is the only code that computes that
//! figure's paper claims and sets their acceptance bands; each claim is
//! one [`Finding`].
//!
//! Five harnesses spread a grid of independent cells over a [`Runner`]
//! and so take `--jobs`: [`fig3`], [`cluster`], [`chaos`],
//! [`verify_study`] and [`all_experiments`] (for its fig3 grid): their
//! cells run long enough for threads to pay off. The other eleven are
//! closed forms over platform costs or single short passes, and run
//! serially.
//!
//! Every `run` function is a pure function of its inputs plus the
//! experiment constants, and a grid harness returns *identical* output
//! at every [`Runner::jobs`] value: `tests/determinism.rs` compares the
//! library output across worker counts, and `tests/golden.rs` pins every
//! binary's bytes against one committed table, the grid binaries at
//! `--jobs 1` and `-j 3`.
//!
//! [`Runner`]: crate::runner::Runner
//! [`Runner::jobs`]: crate::runner::Runner::jobs

pub mod ablations;
pub mod all_experiments;
pub mod chaos;
pub mod cluster;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig8;
pub mod fig9;
pub mod rdma_study;
pub mod security_matrix;
pub mod spawn_time;
pub mod table1;
pub mod verify_lint;
pub mod verify_study;

use crate::Finding;

/// Rendered text plus machine-readable findings from one harness run.
#[derive(Debug, Clone, Default)]
pub struct HarnessOutput {
    /// Exactly what the binary prints to stdout (deterministic).
    pub text: String,
    /// The paper-vs-measured rows for `results/<experiment>.json`.
    pub findings: Vec<Finding>,
}
