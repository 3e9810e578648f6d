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
//! [`Runner::jobs`] value (enforced by `tests/determinism.rs`).
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
use std::time::Instant;

use crate::journal::{
    self, install_sigint_handler, run_resumable, CellPayload, Interrupt, Journal, ResumeArgs,
    ResumeMode,
};
use crate::runner::{BenchEntry, RunPolicy, Runner};
use crate::Finding;

/// Runs one harness under `runner` and produces its fully-populated
/// benchmark ledger row: wall time, any cache counters the harness
/// reports, and — when `runner` is parallel — a serial (`--jobs 1`)
/// reference run with `serial_wall_ms` and the byte-identity bit set.
///
/// Serial invocations get a timing-plus-cache row only; the optional
/// reference fields stay unset (and therefore unserialized).
pub fn measure<F>(harness: &'static str, runner: &Runner, run: F) -> (HarnessOutput, BenchEntry)
where
    F: Fn(&Runner) -> HarnessOutput,
{
    let start = Instant::now();
    let out = run(runner);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut entry = BenchEntry::timing(harness, runner.jobs(), wall_ms);
    if let Some((hits, misses)) = out.cache_stats {
        entry.cache_hits = Some(hits);
        entry.cache_misses = Some(misses);
    }
    if runner.jobs() > 1 {
        let serial_start = Instant::now();
        let serial = run(&Runner::new(1));
        entry.serial_wall_ms = Some(serial_start.elapsed().as_secs_f64() * 1e3);
        entry.parallel_matches_serial = Some(
            serial.text == out.text
                && crate::findings_json(&serial.findings) == crate::findings_json(&out.findings),
        );
    }
    (out, entry)
}

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
    /// The run stopped gracefully (SIGINT, `--max-wall-ms`,
    /// `--halt-after`); completed cells are checkpointed and a
    /// `--resume` invocation picks up from here.
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
/// Mirrors [`Runner::run`]: if any cell exhausts its retry budget the
/// grid finishes and then panics with the structured failure summary.
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
    if let Some(limit) = resume.max_wall {
        interrupt = interrupt.with_max_wall(limit);
    }
    let out = run_resumable(runner, RunPolicy::default(), &mut journal, &interrupt, cell);
    assert!(
        out.failures.is_empty(),
        "{} of {cells} cells failed:{}",
        out.failures.len(),
        out.failures
            .iter()
            .map(|f| format!(
                "\n  cell {} ({} attempt{}): {}",
                f.index,
                f.attempts,
                if f.attempts == 1 { "" } else { "s" },
                f.message
            ))
            .collect::<String>()
    );
    if out.interrupted {
        let completed = out.results.iter().flatten().count();
        return Ok(Journaled::Interrupted {
            completed,
            total: cells,
        });
    }
    let values: Vec<T> = out.results.into_iter().flatten().collect();
    let rendered = render(values);
    journal.remove();
    Ok(Journaled::Complete {
        out: rendered,
        replayed: out.replayed,
        executed: out.executed,
    })
}

/// Rendered text plus machine-readable findings from one harness run.
#[derive(Debug, Clone)]
pub struct HarnessOutput {
    /// Exactly what the binary prints to stdout (deterministic).
    pub text: String,
    /// The paper-vs-measured rows for `results/<experiment>.json`.
    pub findings: Vec<Finding>,
    /// `(hits, misses)` of any memoization the harness ran behind —
    /// e.g. deduplicated closed-loop simulations — for the benchmark
    /// ledger. `None` when the harness has no cache.
    pub cache_stats: Option<(u64, u64)>,
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
        HarnessOutput {
            text,
            findings,
            cache_stats: None,
        }
    }
}
