//! Deterministic parallel experiment runner.
//!
//! Every figure in the paper's evaluation is a grid of independent
//! (configuration, seed) cells, and each cell is a *pure function*: the
//! DES engine in `xc-sim` is single-threaded and dependency-free by
//! policy (DESIGN.md §6), so a cell's result depends only on its inputs.
//! That makes the harness layer — not the engine — the right place for
//! parallelism: [`Runner::run`] shards cells across `std::thread::scope`
//! workers and merges results **in cell-index order**, so the merged
//! output is bit-for-bit identical to a serial run at any `--jobs` value.
//!
//! Three properties carry the determinism argument:
//!
//! 1. **Cell purity** — cells share nothing mutable; each owns its world,
//!    RNG, and statistics.
//! 2. **Substream seeding** — a sharded experiment gives shard `i` the
//!    generator `Rng::substream(seed, i)`, a function of the shard
//!    index alone, never of the executing worker or claim order.
//! 3. **Index-ordered merge** — workers record `(index, result)` pairs;
//!    the merge sorts by index before any fold, so order-sensitive
//!    reducers (`Histogram::merge`, `Summary::merge`, report
//!    rendering) see the serial order.
//!
//! Every grid goes through one path, [`Runner::try_run`]: each cell runs
//! once under `catch_unwind`, so a panicking cell becomes a
//! [`CellFailure`] in the [`RunReport`] while every healthy cell still
//! runs. Cells are pure, so a retry would only panic the same way again.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable consulted for the worker count when no `--jobs`
/// flag is present. Parsed as strictly as the flag: a malformed or zero
/// value is an error, not a silent fallback.
pub const JOBS_ENV: &str = "XC_JOBS";

/// One cell that panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// The cell's grid index.
    pub index: usize,
    /// The panic's message.
    pub message: String,
}

/// Outcome of [`Runner::try_run`]: per-cell results in index order,
/// with failed cells as `None` plus a structured failure record.
#[derive(Debug)]
pub struct RunReport<T> {
    /// `results[i]` is `Some` iff cell `i` succeeded; index order.
    pub results: Vec<Option<T>>,
    /// Failed cells, in index order.
    pub failures: Vec<CellFailure>,
}

impl<T> RunReport<T> {
    /// Whether no cell failed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// One-line-per-cell failure summary (empty string when all passed).
    pub fn failure_summary(&self) -> String {
        if self.failures.is_empty() {
            return String::new();
        }
        let mut s = format!(
            "{} of {} cells failed:",
            self.failures.len(),
            self.results.len()
        );
        for f in &self.failures {
            s.push_str(&format!("\n  cell {}: {}", f.index, f.message));
        }
        s
    }

    /// Unwraps into the plain result vector.
    ///
    /// # Errors
    ///
    /// The failure summary, if any cell failed.
    pub fn into_results(self) -> Result<Vec<T>, String> {
        if self.ok() {
            Ok(self.results.into_iter().flatten().collect())
        } else {
            Err(self.failure_summary())
        }
    }
}

/// A deterministic parallel cell executor (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Runner {
    jobs: usize,
}

impl Runner {
    /// A runner with an explicit worker count (clamped to at least 1;
    /// `1` is the legacy serial path — no threads are spawned).
    pub fn new(jobs: usize) -> Self {
        Runner { jobs: jobs.max(1) }
    }

    /// A runner configured from the process arguments: `--jobs N`,
    /// `--jobs=N` or `-j N`; then the [`JOBS_ENV`] environment variable;
    /// then the host's available parallelism. Malformed or zero values
    /// from either source are a usage error (exit 2), never silently
    /// clamped — a typo'd worker count should fail loudly, not run a
    /// multi-minute sweep at the wrong width.
    pub fn from_args() -> Self {
        let env = std::env::var(JOBS_ENV).ok();
        match jobs_from(std::env::args().skip(1), env.as_deref()) {
            Ok(jobs) => Runner::new(jobs),
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(2);
            }
        }
    }

    /// Worker count this runner shards across.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Evaluates `cell(i)` for `i in 0..cells` and returns the results in
    /// index order — identically at every worker count.
    ///
    /// # Panics
    ///
    /// A panicking cell does not take the whole grid down mid-flight:
    /// every other cell still runs to completion ([`Runner::try_run`]),
    /// and only then does the runner panic with a structured per-cell
    /// report naming each failed index and its panic message.
    pub fn run<T, F>(&self, cells: usize, cell: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        match self.try_run(cells, cell).into_results() {
            Ok(results) => results,
            Err(summary) => panic!("{summary}"),
        }
    }

    /// The one grid-run path: evaluates `cell(i)` for `i in 0..cells`,
    /// each cell once under `catch_unwind`, so one bad cell cannot
    /// poison its worker's remaining claims. Results come back in index
    /// order with failures recorded per cell — identically at every
    /// worker count.
    pub fn try_run<T, F>(&self, cells: usize, cell: F) -> RunReport<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.jobs.min(cells);
        let run_one = |i: usize| {
            let outcome =
                catch_unwind(AssertUnwindSafe(|| cell(i))).map_err(|p| panic_message(p.as_ref()));
            (i, outcome)
        };
        let outcomes: Vec<(usize, Result<T, String>)> = if workers <= 1 {
            (0..cells).map(run_one).collect()
        } else {
            let next = AtomicUsize::new(0);
            let mut indexed: Vec<(usize, Result<T, String>)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut local = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= cells {
                                    return local;
                                }
                                local.push(run_one(i));
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("runner worker panicked"))
                    .collect()
            });
            indexed.sort_unstable_by_key(|&(i, _)| i);
            indexed
        };
        let mut report = RunReport {
            results: (0..cells).map(|_| None).collect(),
            failures: Vec::new(),
        };
        for (index, outcome) in outcomes {
            match outcome {
                Ok(v) => report.results[index] = Some(v),
                Err(message) => report.failures.push(CellFailure { index, message }),
            }
        }
        report
    }
}

impl Default for Runner {
    fn default() -> Self {
        Runner::from_args()
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Parses the worker count from an argument stream (`--jobs N`,
/// `--jobs=N`, `-j N`), falling back to the [`JOBS_ENV`] value when no
/// flag is present (an empty/whitespace value counts as unset), then to
/// the host's available parallelism.
///
/// Strict by design: zero and non-numeric values are errors. The flag
/// wins over the environment, so a malformed `XC_JOBS` is only
/// diagnosed when it would actually be used.
fn jobs_from<I: Iterator<Item = String>>(mut args: I, env: Option<&str>) -> Result<usize, String> {
    fn parse(value: &str, source: &str) -> Result<usize, String> {
        match value.parse::<usize>() {
            Ok(0) => Err(format!(
                "{source} expects a positive integer, got 0 (use 1 for a serial run)"
            )),
            Ok(n) => Ok(n),
            Err(_) => Err(format!(
                "{source} expects a positive integer, got {value:?}"
            )),
        }
    }
    while let Some(arg) = args.next() {
        if arg == "--jobs" || arg == "-j" {
            return match args.next() {
                Some(v) => parse(&v, "--jobs"),
                None => Err("--jobs expects a value".to_owned()),
            };
        } else if let Some(v) = arg.strip_prefix("--jobs=") {
            return parse(v, "--jobs");
        }
    }
    if let Some(v) = env.map(str::trim).filter(|v| !v.is_empty()) {
        return parse(v, JOBS_ENV);
    }
    Ok(std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_preserves_cell_order_at_any_parallelism() {
        let square = |i: usize| i * i;
        let serial = Runner::new(1).run(37, square);
        for jobs in [2, 4, 8] {
            assert_eq!(Runner::new(jobs).run(37, square), serial);
        }
    }

    #[test]
    fn run_handles_edge_sizes() {
        assert!(Runner::new(4).run(0, |i| i).is_empty());
        assert_eq!(Runner::new(4).run(1, |i| i + 10), vec![10]);
        // More workers than cells.
        assert_eq!(Runner::new(64).run(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn jobs_flag_parsing() {
        let parse = |args: &[&str]| jobs_from(args.iter().map(|s| (*s).to_owned()), None);
        assert_eq!(parse(&["--jobs", "4"]), Ok(4));
        assert_eq!(parse(&["--jobs=2"]), Ok(2));
        assert_eq!(parse(&["-j", "8"]), Ok(8));
        let default = parse(&[]).expect("default is host parallelism");
        assert!(default >= 1);
    }

    #[test]
    fn jobs_parsing_rejects_zero_and_garbage() {
        let parse = |args: &[&str]| jobs_from(args.iter().map(|s| (*s).to_owned()), None);
        assert!(
            parse(&["--jobs", "0"]).is_err(),
            "zero is rejected, not clamped"
        );
        assert!(parse(&["--jobs=0"]).is_err());
        assert!(parse(&["-j", "four"]).is_err());
        assert!(parse(&["--jobs", "-2"]).is_err());
        assert!(parse(&["--jobs=2.5"]).is_err());
        assert!(parse(&["--jobs"]).is_err(), "missing value is rejected");
    }

    #[test]
    fn jobs_env_is_fallback_only_and_just_as_strict() {
        let parse = |args: &[&str], env| jobs_from(args.iter().map(|s| (*s).to_owned()), env);
        assert_eq!(parse(&[], Some("6")), Ok(6));
        assert_eq!(parse(&[], Some(" 3 ")), Ok(3), "surrounding whitespace ok");
        assert!(parse(&[], Some("0")).is_err());
        assert!(parse(&[], Some("lots")).is_err());
        // Empty counts as unset, not malformed.
        assert!(parse(&[], Some("")).is_ok());
        assert!(parse(&[], Some("  ")).is_ok());
        // The flag wins; a malformed env var is not even consulted.
        assert_eq!(parse(&["--jobs", "2"], Some("bogus")), Ok(2));
        assert_eq!(parse(&["--jobs=5"], Some("1")), Ok(5));
    }

    #[test]
    fn panicking_cell_is_isolated_and_reported() {
        for jobs in [1, 4] {
            let report = Runner::new(jobs).try_run(10, |i| {
                assert!(i != 3 && i != 7, "cell {i} exploded");
                i * 2
            });
            assert!(!report.ok());
            // Every healthy cell still produced its result.
            for i in [0, 1, 2, 4, 5, 6, 8, 9] {
                assert_eq!(report.results[i], Some(i * 2), "jobs={jobs}");
            }
            assert_eq!(report.results[3], None);
            assert_eq!(report.results[7], None);
            let indices: Vec<usize> = report.failures.iter().map(|f| f.index).collect();
            assert_eq!(
                indices,
                vec![3, 7],
                "failures in index order at jobs={jobs}"
            );
            assert!(report.failures[0].message.contains("cell 3 exploded"));
            let summary = report.failure_summary();
            assert!(summary.contains("2 of 10 cells failed"), "{summary}");
            assert!(summary.contains("cell 7"), "{summary}");
        }
    }

    #[test]
    fn try_run_with_no_failures_matches_run() {
        let report = Runner::new(4).try_run(20, |i| i + 1);
        assert!(report.ok());
        assert!(report.failure_summary().is_empty());
        assert_eq!(
            report.into_results().expect("all cells passed"),
            Runner::new(4).run(20, |i| i + 1)
        );
    }

    #[test]
    fn run_panics_with_structured_summary_after_finishing_the_grid() {
        let touched = std::sync::atomic::AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            Runner::new(2).run(8, |i| {
                touched.fetch_add(1, Ordering::Relaxed);
                assert!(i != 5, "boom in cell {i}");
                i
            })
        }));
        let payload = result.expect_err("a failing cell must surface");
        let message = panic_message(payload.as_ref());
        assert!(message.contains("1 of 8 cells failed"), "{message}");
        assert!(message.contains("boom in cell 5"), "{message}");
        // Every cell ran exactly once before the panic.
        assert_eq!(touched.load(Ordering::Relaxed), 8);
    }
}
