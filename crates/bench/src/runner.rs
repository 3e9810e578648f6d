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
//!
//! [`Args`] is every harness binary's command line: each binary names
//! the [`Flag`]s it takes, and anything else exits 2 before it runs.

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

/// A flag a harness binary can take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--jobs N`, `--jobs=N` or `-j N`: the runner's worker count.
    Jobs,
    /// `--quick`: the smaller grid.
    Quick,
    /// `--profile`: extra timings on stderr.
    Profile,
}

impl Flag {
    fn usage(self) -> &'static str {
        match self {
            Flag::Jobs => " [--jobs N]",
            Flag::Quick => " [--quick]",
            Flag::Profile => " [--profile]",
        }
    }
}

/// A harness binary's command line, parsed against the flags it takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Args {
    /// The `--jobs` value, if one was given.
    jobs: Option<usize>,
    /// Whether `--quick` was given.
    pub quick: bool,
    /// Whether `--profile` was given.
    pub profile: bool,
}

impl Args {
    /// Parses the process arguments against `takes`, the flags this
    /// binary accepts. Any other argument, and a zero, malformed or
    /// missing `--jobs` value, is a usage error: the message and a usage
    /// line go to stderr and the process exits 2 before anything runs —
    /// a typo should fail loudly, not run a different experiment.
    pub fn parse(takes: &[Flag]) -> Args {
        let mut argv = std::env::args();
        let bin = argv.next().unwrap_or_default();
        Args::parse_from(takes, argv).unwrap_or_else(|msg| {
            let name = std::path::Path::new(&bin)
                .file_name()
                .unwrap_or(bin.as_ref());
            let flags: String = takes.iter().map(|f| f.usage()).collect();
            eprintln!("error: {msg}\nusage: {}{flags}", name.to_string_lossy());
            std::process::exit(2);
        })
    }

    /// [`Args::parse`] over an argument stream (without the program
    /// name), returning the usage error instead of exiting.
    fn parse_from(takes: &[Flag], mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        fn jobs(value: &str) -> Result<usize, String> {
            match value.parse::<usize>() {
                Ok(0) => Err(
                    "--jobs expects a positive integer, got 0 (use 1 for a serial run)".to_owned(),
                ),
                Ok(n) => Ok(n),
                Err(_) => Err(format!("--jobs expects a positive integer, got {value:?}")),
            }
        }
        let takes_jobs = takes.contains(&Flag::Jobs);
        let mut args = Args::default();
        while let Some(arg) = argv.next() {
            match arg.as_str() {
                "--jobs" | "-j" if takes_jobs => {
                    let value = argv.next().ok_or("--jobs expects a value")?;
                    args.jobs = Some(jobs(&value)?);
                }
                "--quick" if takes.contains(&Flag::Quick) => args.quick = true,
                "--profile" if takes.contains(&Flag::Profile) => args.profile = true,
                _ => match arg.strip_prefix("--jobs=") {
                    Some(value) if takes_jobs => args.jobs = Some(jobs(value)?),
                    _ => return Err(format!("unknown argument {arg:?}")),
                },
            }
        }
        Ok(args)
    }

    /// A runner at the `--jobs` worker count, else at the host's
    /// available parallelism.
    pub fn runner(&self) -> Runner {
        Runner::new(self.jobs.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        }))
    }
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

    fn parse_with(takes: &[Flag], args: &[&str]) -> Result<Args, String> {
        Args::parse_from(takes, args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn jobs_flag_parsing() {
        let parse = |args: &[&str]| parse_with(&[Flag::Jobs], args).map(|a| a.runner().jobs());
        assert_eq!(parse(&["--jobs", "4"]), Ok(4));
        assert_eq!(parse(&["--jobs=2"]), Ok(2));
        assert_eq!(parse(&["-j", "8"]), Ok(8));
        let default = parse(&[]).expect("default is host parallelism");
        assert!(default >= 1);
    }

    #[test]
    fn jobs_parsing_rejects_zero_and_garbage() {
        let parse = |args: &[&str]| parse_with(&[Flag::Jobs], args);
        assert!(
            parse(&["--jobs", "0"]).is_err(),
            "zero is rejected, not clamped"
        );
        assert!(parse(&["--jobs=0"]).is_err());
        assert!(parse(&["-j", "four"]).is_err());
        assert!(parse(&["--jobs", "-2"]).is_err());
        assert!(parse(&["--jobs=2.5"]).is_err());
        assert!(parse(&["--jobs"]).is_err(), "missing value is rejected");
        assert!(parse(&["--jobs="]).is_err(), "empty value is rejected");
    }

    #[test]
    fn flags_a_binary_does_not_take_are_unknown() {
        let all = [Flag::Jobs, Flag::Quick, Flag::Profile];
        let args = parse_with(&all, &["--profile", "-j", "3", "--quick"]).expect("all taken");
        assert!(args.quick && args.profile);
        assert_eq!(args.runner().jobs(), 3);
        assert_eq!(parse_with(&all, &[]), Ok(Args::default()));
        let unknown = |takes: &[Flag], arg: &str| {
            parse_with(takes, &[arg]) == Err(format!("unknown argument {arg:?}"))
        };
        for arg in ["--quik", "--fault-rate", "0.05", "-j3", "--Quick", ""] {
            assert!(unknown(&all, arg), "{arg:?} must be unknown");
        }
        for arg in ["--jobs", "-j", "--jobs=4", "--quick", "--profile"] {
            assert!(
                unknown(&[], arg),
                "{arg:?} must be unknown to a serial binary"
            );
        }
        assert!(unknown(&[Flag::Jobs], "--quick"));
        assert!(unknown(&[Flag::Jobs, Flag::Quick], "--profile"));
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
