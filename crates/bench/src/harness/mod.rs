//! Experiment harness logic, one module per figure.
//!
//! The binaries in `src/bin/` are thin wrappers: they parse `--jobs`,
//! call the matching `run` function here with a [`Runner`], print the
//! returned text, and record the findings. Keeping the logic in the
//! library makes it callable from the determinism integration tests and
//! from the combined `all_experiments` pass without shelling out.
//!
//! Every `run` function is a pure function of its inputs plus the
//! experiment constants, and returns *identical* output at every
//! [`Runner::jobs`] value: `tests/determinism.rs` compares the library
//! output across worker counts, and `tests/golden.rs` pins every
//! binary's bytes at `--jobs 1` and `-j 3` against one committed
//! table.
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
pub mod fig8;
pub mod verify_lint;
pub mod verify_study;

use std::io;
use std::path::Path;

use crate::journal::{
    self, install_sigint_handler, run_resumable, CellPayload, Interrupt, Journal, ResumeArgs,
    ResumeMode,
};
use crate::runner::Runner;
use crate::Finding;

/// Outcome of a journaled (crash-safe) harness run.
#[derive(Debug)]
pub enum Journaled {
    /// Every cell completed; the journal was removed.
    Complete {
        /// The rendered harness output — byte-identical to a straight
        /// run's, however many cells came from the journal.
        out: HarnessOutput,
        /// Cells satisfied from the journal.
        replayed: usize,
        /// Cells executed (and checkpointed) by this process.
        executed: usize,
    },
    /// The run stopped gracefully (SIGINT or `--halt-after`); completed
    /// cells are checkpointed and a `--resume` invocation picks up from
    /// here.
    Interrupted {
        /// Cells checkpointed so far (this process plus the journal).
        completed: usize,
        /// Grid size.
        total: usize,
    },
}

/// The crash-safe path every resumable harness shares: opens the
/// journal for `name` under `root` (honoring `--fresh`), replays
/// checkpointed cells, executes the missing ones with graceful
/// interruption wired up, and — only when the grid completed — renders
/// the merged output and removes the journal. Journal health notes go
/// to stderr; stdout stays byte-identical to a straight run.
///
/// # Errors
///
/// Filesystem errors opening or repairing the journal.
///
/// # Panics
///
/// Mirrors [`Runner::run`]: if any cell panics, the grid finishes (every
/// healthy cell checkpointed) and then panics with the structured
/// failure summary.
#[allow(clippy::too_many_arguments)]
pub fn run_journaled<T, F, R>(
    runner: &Runner,
    root: &Path,
    name: &str,
    fingerprint: u64,
    cells: usize,
    resume: &ResumeArgs,
    cell: F,
    render: R,
) -> io::Result<Journaled>
where
    T: CellPayload + Send + Sync,
    F: Fn(usize) -> T + Sync,
    R: FnOnce(Vec<T>) -> HarnessOutput,
{
    if resume.mode == ResumeMode::Fresh {
        journal::discard(root, name)?;
    }
    let mut journal = Journal::<T>::open_at(root, name, fingerprint, cells)?;
    let scan = journal.scan();
    if scan.replayed + scan.damaged + scan.stale > 0 {
        eprintln!(
            "note: journal {name}: {} cells replayed, {} damaged records dropped, \
             {} stale records ignored",
            scan.replayed, scan.damaged, scan.stale
        );
    }
    install_sigint_handler();
    let mut interrupt = Interrupt::new();
    if let Some(n) = resume.halt_after {
        interrupt = interrupt.with_halt_after(n);
    }
    let out = run_resumable(runner, &mut journal, &interrupt, cell);
    assert!(out.ok(), "{}", out.failure_summary());
    if out.unrun > 0 {
        return Ok(Journaled::Interrupted {
            completed: cells - out.unrun,
            total: cells,
        });
    }
    let rendered = render(out.results.into_iter().flatten().collect());
    journal.remove();
    Ok(Journaled::Complete {
        out: rendered,
        replayed: scan.replayed,
        executed: cells - scan.replayed,
    })
}

/// Settles a resumable binary's journaled run: a completed run notes
/// its replay split on stderr and hands back the output to print and
/// record; an interrupted run exits 3 (resumable) and a journal error
/// exits 1.
pub fn completed_or_exit(name: &str, run: io::Result<Journaled>) -> HarnessOutput {
    match run {
        Ok(Journaled::Complete {
            out,
            replayed,
            executed,
        }) => {
            eprintln!("{name}: {replayed} cells replayed from the journal, {executed} executed");
            out
        }
        Ok(Journaled::Interrupted { completed, total }) => {
            eprintln!(
                "{name}: interrupted after {completed}/{total} cells; \
                 rerun with --resume to continue"
            );
            std::process::exit(3);
        }
        Err(e) => {
            eprintln!("{name}: journal error: {e}");
            std::process::exit(1);
        }
    }
}

/// Rendered text plus machine-readable findings from one harness run.
#[derive(Debug, Clone)]
pub struct HarnessOutput {
    /// Exactly what the binary prints to stdout (deterministic).
    pub text: String,
    /// The paper-vs-measured rows for `results/<experiment>.json`.
    pub findings: Vec<Finding>,
}

impl HarnessOutput {
    /// Merges per-cell `(text, findings)` results in cell order.
    fn merge(cells: Vec<(String, Vec<Finding>)>) -> Self {
        let mut text = String::new();
        let mut findings = Vec::new();
        for (t, f) in cells {
            text.push_str(&t);
            findings.extend(f);
        }
        HarnessOutput { text, findings }
    }
}
