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
//!    the merge sorts by index before any fold, so reducers
//!    (`Histogram::merge`, report rendering) see the serial order.
//!
//! Every grid goes through one path, [`Runner::run`]: each cell runs
//! once under `catch_unwind`, so a panicking cell cannot stop the other
//! cells, and only once the whole grid has run does `run` panic, naming
//! every failed cell and its message in index order. Cells are pure, so
//! a retry would only panic the same way again.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

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
    /// `--jobs=N` or `-j N`, else the host's available parallelism. A
    /// malformed or zero value is a usage error (exit 2), never silently
    /// clamped — a typo'd worker count should fail loudly, not run a
    /// multi-minute sweep at the wrong width.
    pub fn from_args() -> Self {
        match jobs_from(std::env::args().skip(1)) {
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
    /// index order — identically at every worker count. Each cell runs
    /// once under `catch_unwind`, so one bad cell cannot poison its
    /// worker's remaining claims.
    ///
    /// # Panics
    ///
    /// A panicking cell does not take the whole grid down mid-flight:
    /// every other cell still runs to completion, and only then does the
    /// runner panic with one message naming each failed index and its
    /// panic message, in index order.
    pub fn run<T, F>(&self, cells: usize, cell: F) -> Vec<T>
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
        let mut results = Vec::with_capacity(cells);
        let mut failures = Vec::new();
        for (index, outcome) in outcomes {
            match outcome {
                Ok(v) => results.push(v),
                Err(message) => failures.push(format!("\n  cell {index}: {message}")),
            }
        }
        if !failures.is_empty() {
            panic!(
                "{} of {cells} cells failed:{}",
                failures.len(),
                failures.concat()
            );
        }
        results
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
/// `--jobs=N`, `-j N`), falling back to the host's available
/// parallelism when no flag is present.
///
/// Strict by design: zero and non-numeric values are errors.
fn jobs_from<I: Iterator<Item = String>>(mut args: I) -> Result<usize, String> {
    fn parse(value: &str) -> Result<usize, String> {
        match value.parse::<usize>() {
            Ok(0) => {
                Err("--jobs expects a positive integer, got 0 (use 1 for a serial run)".to_owned())
            }
            Ok(n) => Ok(n),
            Err(_) => Err(format!("--jobs expects a positive integer, got {value:?}")),
        }
    }
    while let Some(arg) = args.next() {
        if arg == "--jobs" || arg == "-j" {
            return match args.next() {
                Some(v) => parse(&v),
                None => Err("--jobs expects a value".to_owned()),
            };
        } else if let Some(v) = arg.strip_prefix("--jobs=") {
            return parse(v);
        }
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
        let parse = |args: &[&str]| jobs_from(args.iter().map(|s| (*s).to_owned()));
        assert_eq!(parse(&["--jobs", "4"]), Ok(4));
        assert_eq!(parse(&["--jobs=2"]), Ok(2));
        assert_eq!(parse(&["-j", "8"]), Ok(8));
        let default = parse(&[]).expect("default is host parallelism");
        assert!(default >= 1);
    }

    #[test]
    fn jobs_parsing_rejects_zero_and_garbage() {
        let parse = |args: &[&str]| jobs_from(args.iter().map(|s| (*s).to_owned()));
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
