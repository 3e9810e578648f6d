//! `xc-benchmark` — the simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload W]... [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
//! xc-benchmark --write-golden [--workload W]...
//! xc-benchmark --compare A.json B.json
//! ```
//!
//! Iterations, the probe and set-up are timed in thread CPU time
//! ([`clock`]); spans, the traced iteration time and the parallel
//! speed-up in wall time. A run has three phases:
//!
//! 1. warm-up: one iteration per workload, which fills caches and, for a
//!    non-default seed, fixes the table every later iteration must match;
//! 2. timed children (end-to-end runs): 7 fresh child processes per
//!    workload, taken in turn. Each times `main()` → end of its own
//!    warm-up iteration (set-up), then runs timed rounds — `per_round`
//!    iterations with one pass of a fixed CPU probe sliced between them —
//!    for 5 rounds or its share of `--seconds`, and reports its peak RSS.
//!    Every end-to-end metric is the median over the children of each
//!    child's own median, so neither one slow process nor a burst of
//!    host contention moves it;
//! 3. traced run (per-layer runs): iterations with spans recorded, each
//!    paired with an untraced one to measure the tracing overhead and
//!    followed by one probe pass, for 5 pairs or its share of
//!    `--seconds`; then a `--jobs 1` vs `--jobs nproc` comparison.
//!
//! With `--seconds S` each of the two measured phases takes about `S`
//! seconds in all, shared evenly by its children or workloads.
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones, and no `--trace` both. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 0
//! only when every iteration reproduced its expected table and kept its
//! invariants.

use std::any::Any;
use std::fmt::Write as _;
use std::fs;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use xc_bench::runner::Runner;
use xc_benchmark::clock::{self, Stopwatch};
use xc_benchmark::layers::{
    self, MetricDef, RunFacts, END_TO_END, ITER_MS, ITER_REL, OPS_FAILED, PEAK_RSS, PER_LAYER,
    SETUP_S,
};
use xc_benchmark::probe;
use xc_benchmark::report::{self, Settings, WorkloadResult};
use xc_benchmark::summary::{median, quartiles};
use xc_benchmark::trace::{self, Profile};
use xc_benchmark::workloads::{Outcome, Size, Workload};
use xcontainers::prelude::{json_array, json_object, Json};

/// Fresh processes per workload that each set up and run timed rounds.
const TIMING_CHILDREN: usize = 7;
/// Timed rounds per child in a run without `--seconds`.
const ROUNDS_PER_CHILD: usize = 5;
/// Fewest timed rounds a child makes under `--seconds`.
const MIN_ROUNDS: usize = 3;
/// Traced iterations per workload without `--seconds`, and the fewest
/// with it.
const TRACED_ITERATIONS: usize = 5;
/// `--jobs 1` / `--jobs nproc` iteration pairs for `runner.speedup_nproc`.
const SPEEDUP_PAIRS: usize = 1;
/// Failure messages kept per workload.
const MAX_FAILURE_NOTES: usize = 5;

const USAGE: &str = "usage:
  xc-benchmark [--workload W]... [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
  xc-benchmark --write-golden [--workload W]...
  xc-benchmark --compare A.json B.json

workloads: cluster_open closed_loop chaos_faults verify_corpus (default: all)";

#[derive(Debug, PartialEq)]
enum Mode {
    Measure,
    TimingChild,
    WriteGolden,
    Compare(PathBuf, PathBuf),
}

/// How long one measured phase of one workload (a timing child's rounds,
/// the traced pairs) runs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Budget {
    /// Exactly this many rounds or pairs.
    Count(usize),
    /// At least this many milliseconds, and at least a minimum count.
    Millis(u64),
}

impl Budget {
    /// Whether `done` rounds or pairs begun at `since` use the budget up.
    fn spent(self, done: usize, least: usize, since: Instant) -> bool {
        match self {
            Budget::Count(n) => done >= n,
            Budget::Millis(ms) => done >= least && since.elapsed().as_millis() >= u128::from(ms),
        }
    }
}

#[derive(Debug)]
struct Args {
    mode: Mode,
    workloads: Vec<Workload>,
    seed: Option<u64>,
    seconds: Option<u64>,
    /// `Some(false)`: end-to-end only; `Some(true)`: per-layer only.
    trace: Option<bool>,
    out: PathBuf,
    /// A timing child's rounds (`--rounds N` or `--millis M`).
    budget: Budget,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::Measure,
        workloads: Vec::new(),
        seed: None,
        seconds: None,
        trace: None,
        out: PathBuf::from("target/xc-benchmark/result.json"),
        budget: Budget::Count(ROUNDS_PER_CHILD),
    };
    fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
        text.parse()
            .map_err(|_| format!("{flag}: `{text}` is not a whole number"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it, &flag)?;
                if name == "all" {
                    args.workloads.extend(Workload::ALL);
                } else {
                    args.workloads.push(
                        Workload::from_name(&name)
                            .ok_or_else(|| format!("unknown workload `{name}`"))?,
                    );
                }
            }
            "--seed" => args.seed = Some(number(&value(&mut it, &flag)?, &flag)?),
            "--seconds" => args.seconds = Some(number(&value(&mut it, &flag)?, &flag)?),
            "--trace" => {
                args.trace = Some(match value(&mut it, &flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            "--out" => args.out = PathBuf::from(value(&mut it, &flag)?),
            "--write-golden" => args.mode = Mode::WriteGolden,
            "--timing-child" => args.mode = Mode::TimingChild,
            "--rounds" => args.budget = Budget::Count(number(&value(&mut it, &flag)?, &flag)?),
            "--millis" => args.budget = Budget::Millis(number(&value(&mut it, &flag)?, &flag)?),
            "--compare" => {
                let a = value(&mut it, &flag)?;
                let b = value(&mut it, &flag)?;
                args.mode = Mode::Compare(a.into(), b.into());
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.seconds == Some(0) {
        return Err("--seconds must be at least 1".to_owned());
    }
    if args.workloads.is_empty() {
        args.workloads.extend(Workload::ALL);
    }
    let mut seen = Vec::new();
    args.workloads.retain(|w| {
        let first = !seen.contains(w);
        seen.push(*w);
        first
    });
    if args.mode == Mode::TimingChild && args.workloads.len() != 1 {
        return Err("--timing-child takes exactly one --workload".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let started = Stopwatch::start();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.mode {
        Mode::Measure => measure(&args, started),
        Mode::TimingChild => timing_child(&args, started),
        Mode::WriteGolden => write_golden(&args),
        Mode::Compare(a, b) => compare(a, b),
    }
}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => format!("panicked: {s}"),
        Err(payload) => match payload.downcast::<&str>() {
            Ok(s) => format!("panicked: {s}"),
            Err(_) => "panicked".to_owned(),
        },
    }
}

/// Checks one iteration: invariants first, then the table against the
/// expected one (which the first good iteration fixes when unset).
fn check(expected: &mut Option<String>, out: &Outcome) -> Result<(), String> {
    if !out.problems.is_empty() {
        return Err(out.problems.join("; "));
    }
    match expected {
        None => {
            *expected = Some(out.table.clone());
            Ok(())
        }
        Some(want) if *want == out.table => Ok(()),
        Some(want) if want.is_empty() => Err("no golden table; run with --write-golden".to_owned()),
        Some(want) => Err(first_difference(want, &out.table)),
    }
}

fn first_difference(want: &str, got: &str) -> String {
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        if w != g {
            return format!("table line {} differs: expected `{w}`, got `{g}`", i + 1);
        }
    }
    format!(
        "table has {} lines, expected {}",
        got.lines().count(),
        want.lines().count()
    )
}

/// One workload's state across a run.
struct Bench {
    workload: Workload,
    seed: u64,
    /// The table every iteration must reproduce: the golden table at the
    /// default seed, otherwise the first good iteration's.
    expected: Option<String>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    last: Option<Outcome>,
    /// Timed rounds summed over the children.
    rounds: usize,
    /// One sample per timing child of each end-to-end metric.
    iter_rel: Vec<f64>,
    iter_ms: Vec<f64>,
    setup_s: Vec<f64>,
    rss_mib: Vec<f64>,
}

/// A timing child's rounds: mean iteration CPU ms, that ÷ the round's
/// probe pass, and the probe pass in CPU ms.
#[derive(Default)]
struct Rounds {
    ms: Vec<f64>,
    rel: Vec<f64>,
    probe_ms: Vec<f64>,
}

impl Bench {
    fn new(workload: Workload, seed: Option<u64>) -> Self {
        let seed = seed.unwrap_or(workload.default_seed());
        Bench {
            workload,
            seed,
            expected: (seed == workload.default_seed()).then(|| workload.golden().to_owned()),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            last: None,
            rounds: 0,
            iter_rel: Vec::new(),
            iter_ms: Vec::new(),
            setup_s: Vec::new(),
            rss_mib: Vec::new(),
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.note(msg);
    }

    /// Records why an already counted iteration failed.
    fn note(&mut self, msg: String) {
        eprintln!("FAIL {}: {msg}", self.workload.name());
        if self.failures.len() < MAX_FAILURE_NOTES {
            self.failures.push(msg);
        }
    }

    /// Runs and checks one iteration; returns its `(cpu, wall)` times
    /// in ms.
    fn iterate(&mut self, runner: &Runner) -> (f64, f64) {
        let (workload, seed, expected) = (self.workload, self.seed, &mut self.expected);
        let watch = Stopwatch::start();
        let result = catch_unwind(AssertUnwindSafe(|| {
            trace::span("bench", "iteration", || {
                let out = workload.run(Size::Full, seed, runner);
                let checked = trace::span("bench", "check", || check(expected, &out));
                (out, checked)
            })
        }));
        let ms = (watch.cpu_ms(), watch.wall_ms());
        self.attempted += 1;
        match result {
            Ok((out, checked)) => {
                self.last = Some(out);
                if let Err(e) = checked {
                    self.fail(e);
                }
            }
            Err(payload) => self.fail(panic_message(payload)),
        }
        ms
    }

    /// Runs timed rounds until `budget` is spent: each round is
    /// `per_round` iterations with one probe pass cut into slices before
    /// every iteration and after the last, so the probe samples the host
    /// across the round.
    fn timed_rounds(&mut self, runner: &Runner, budget: Budget) -> Rounds {
        let per_round = self.workload.per_round();
        let slice = probe::STEPS / (per_round as u64 + 1);
        let mut rounds = Rounds::default();
        let started = Instant::now();
        while !budget.spent(rounds.ms.len(), MIN_ROUNDS, started) {
            let mut probe_ms = time_probe(slice);
            let mut total = 0.0;
            for _ in 0..per_round {
                total += self.iterate(runner).0;
                probe_ms += time_probe(slice);
            }
            let mean = total / per_round as f64;
            rounds.ms.push(mean);
            rounds.rel.push(mean / probe_ms);
            rounds.probe_ms.push(probe_ms);
        }
        rounds
    }

    fn result(&self, per_layer: Vec<(MetricDef, f64)>) -> WorkloadResult {
        let end_to_end = if self.iter_rel.is_empty() {
            Vec::new()
        } else {
            vec![
                (ITER_REL, self.iter_rel.clone()),
                (ITER_MS, self.iter_ms.clone()),
                (SETUP_S, self.setup_s.clone()),
                (PEAK_RSS, self.rss_mib.clone()),
            ]
        };
        WorkloadResult {
            name: self.workload.name(),
            seed: self.seed,
            rounds: self.rounds,
            end_to_end,
            attempted: self.attempted,
            failed: self.failed,
            per_layer,
            failures: self.failures.clone(),
        }
    }
}

/// `steps` probe steps, in CPU ms.
fn time_probe(steps: u64) -> f64 {
    let watch = Stopwatch::start();
    black_box(probe::run(steps));
    watch.cpu_ms()
}

/// Peak resident set less its file-backed pages. How many pages of the
/// executable and libraries are resident depends on the page cache
/// (fault-around maps cached neighbours), not on the program, and moved
/// the raw peak by up to 6% between identical runs.
fn peak_rss_kib() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let field = |name: &str| -> Result<f64, String> {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("no {name} line in /proc/self/status"))
    };
    Ok(field("VmHWM:")? - field("RssFile:")?)
}

/// `--timing-child`: warm-up iteration, set-up time, timed rounds, peak
/// RSS — reported as one JSON line.
fn timing_child(args: &Args, started: Stopwatch) -> ExitCode {
    let runner = Runner::new(1);
    let mut bench = Bench::new(args.workloads[0], args.seed);
    bench.iterate(&runner);
    let setup_cpu_s = started.cpu_ms() / 1e3;
    let table = bench
        .last
        .as_ref()
        .map(|o| o.table.clone())
        .unwrap_or_default();
    let rounds = bench.timed_rounds(&runner, args.budget);
    let rss_kib = match peak_rss_kib() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let nums = |v: Vec<f64>| json_array(v.into_iter().map(Json::Num));
    let doc = json_object([
        ("setup_cpu_s", Json::Num(setup_cpu_s)),
        ("rss_kib", Json::Num(rss_kib)),
        ("attempted", Json::Num(bench.attempted as f64)),
        ("failed", Json::Num(bench.failed as f64)),
        (
            "failures",
            Json::Arr(bench.failures.into_iter().map(Json::from).collect()),
        ),
        ("table", Json::from(table)),
        ("round_ms", nums(rounds.ms)),
        ("round_rel", nums(rounds.rel)),
        ("probe_ms", nums(rounds.probe_ms)),
    ]);
    println!("{}", doc.to_string_compact());
    ExitCode::SUCCESS
}

/// Runs one timing child for `bench` and folds its report in: one sample
/// per end-to-end metric, each the child's own median.
fn run_timing_child(exe: &Path, bench: &mut Bench, budget: Budget) {
    let budget = match budget {
        Budget::Count(n) => ["--rounds".to_owned(), n.to_string()],
        Budget::Millis(ms) => ["--millis".to_owned(), ms.to_string()],
    };
    let out = Command::new(exe)
        .args(["--timing-child", "--workload", bench.workload.name()])
        .args(["--seed", &bench.seed.to_string()])
        .args(budget)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    let report = out
        .map_err(|e| format!("cannot start timing child: {e}"))
        .and_then(|o| {
            if !o.status.success() {
                return Err(format!("timing child exited with {}", o.status));
            }
            let text = String::from_utf8_lossy(&o.stdout).into_owned();
            let line = text.lines().last().unwrap_or_default().to_owned();
            Json::parse(&line).map_err(|e| format!("timing child report: {e}"))
        });
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            bench.attempted += 1;
            bench.fail(e);
            return;
        }
    };
    let num = |k: &str| report.get(k).and_then(Json::as_num).unwrap_or(f64::NAN);
    let nums = |k: &str| -> Vec<f64> {
        report
            .get(k)
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(Json::as_num)
            .collect()
    };
    bench.attempted += num("attempted") as u64;
    bench.failed += num("failed") as u64;
    let rel = nums("round_rel");
    if rel.is_empty() {
        bench.attempted += 1;
        bench.fail("timing child reported no rounds".to_owned());
    } else {
        bench.rounds += rel.len();
        bench.iter_rel.push(median(&rel));
        bench.iter_ms.push(median(&nums("round_ms")));
        // Set-up in reference seconds: scaled by how much slower than the
        // reference this child's own probe passes ran.
        let speed = probe::REFERENCE_PASS_MS / median(&nums("probe_ms"));
        bench.setup_s.push(num("setup_cpu_s") * speed);
        bench.rss_mib.push(num("rss_kib") / 1024.0);
    }
    let notes = report
        .get("failures")
        .and_then(Json::as_arr)
        .unwrap_or_default();
    for note in notes.iter().filter_map(Json::as_str) {
        bench.note(format!("timing child: {note}"));
    }
    // The child's warm-up table must match this process's.
    let table = report
        .get("table")
        .and_then(Json::as_str)
        .unwrap_or_default();
    if let Some(want) = &bench.expected {
        if table != want {
            let msg = format!("timing child: {}", first_difference(want, table));
            bench.attempted += 1;
            bench.fail(msg);
        }
    }
}

fn git_rev() -> String {
    let mut cmd = Command::new("git");
    cmd.args(["rev-parse", "HEAD"])
        .stdin(Stdio::null())
        .stderr(Stdio::null());
    // Never pick up a repository above the working directory.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .as_deref()
        .and_then(Path::parent)
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    match cmd.output() {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        _ => "unknown".to_owned(),
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn measure(args: &Args, started: Stopwatch) -> ExitCode {
    let end_to_end = args.trace != Some(true);
    let per_layer = args.trace != Some(false);
    let runner = Runner::new(1);
    let mut benches: Vec<Bench> = args
        .workloads
        .iter()
        .map(|&w| Bench::new(w, args.seed))
        .collect();

    eprintln!("xc-benchmark: warm-up");
    for b in &mut benches {
        b.iterate(&runner);
    }

    if end_to_end {
        // Without `--seconds` each child runs a fixed number of rounds;
        // with it, the timed children share the seconds evenly.
        let budget = match args.seconds {
            Some(s) => Budget::Millis(s * 1000 / (TIMING_CHILDREN * benches.len()) as u64),
            None => Budget::Count(ROUNDS_PER_CHILD),
        };
        eprintln!("xc-benchmark: timed rounds in {TIMING_CHILDREN} child processes per workload");
        match std::env::current_exe() {
            Ok(exe) => {
                // Children of different workloads take turns, so host
                // drift over the run hits every workload alike.
                for _ in 0..TIMING_CHILDREN {
                    for b in &mut benches {
                        run_timing_child(&exe, b, budget);
                    }
                }
            }
            Err(e) => {
                for b in &mut benches {
                    b.attempted += 1;
                    b.fail(format!("cannot locate own executable: {e}"));
                }
            }
        }
    }

    let mut results = Vec::new();
    let mut layer_text = String::new();
    let out_dir = args.out.parent().unwrap_or(Path::new(".")).to_path_buf();
    let traced = match args.seconds {
        Some(s) => Budget::Millis(s * 1000 / benches.len() as u64),
        None => Budget::Count(TRACED_ITERATIONS),
    };
    for b in &mut benches {
        let layers = if per_layer {
            eprintln!("xc-benchmark: traced run of {}", b.workload.name());
            let (layers, table) = traced_run(b, &runner, traced, &out_dir);
            layer_text.push_str(&table);
            layers
        } else {
            Vec::new()
        };
        results.push(b.result(layers));
    }

    let settings = Settings {
        git_rev: git_rev(),
        available_parallelism: nproc(),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        jobs: runner.jobs(),
        children: TIMING_CHILDREN,
        rounds: args.seconds.is_none().then_some(ROUNDS_PER_CHILD),
        seconds: args.seconds,
        clock: clock::name(),
    };
    print!("{}", render_report(&settings, &results));
    print!("{layer_text}");
    let doc = report::result_json(&settings, &results);
    if let Err(e) =
        fs::create_dir_all(&out_dir).and_then(|()| fs::write(&args.out, doc.to_string_compact()))
    {
        eprintln!("note: cannot write {}: {e}", args.out.display());
    } else {
        eprintln!("xc-benchmark: wrote {}", args.out.display());
    }
    eprintln!("xc-benchmark: done in {:.1} s", started.wall_ms() / 1e3);
    let (line, correct) = result_line(&results, end_to_end, per_layer);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn iterate_untraced(b: &mut Bench, runner: &Runner) -> (f64, f64) {
    trace::set_recording(false);
    let ms = b.iterate(runner);
    trace::set_recording(true);
    ms
}

/// The traced run for one workload: traced iterations paired with
/// untraced ones, each pair followed by one probe pass, until `budget` is
/// spent; then the `--jobs` comparison, the Chrome trace file and the
/// layer table.
fn traced_run(
    b: &mut Bench,
    runner: &Runner,
    budget: Budget,
    out_dir: &Path,
) -> (Vec<(MetricDef, f64)>, String) {
    let mut traced_wall_ms = Vec::new();
    let mut slowdown = Vec::new();
    let mut probes = Vec::new();
    let started = Instant::now();
    let mut pairs = 0u32;
    trace::start();
    while !budget.spent(pairs as usize, TRACED_ITERATIONS, started) {
        trace::set_iteration(pairs);
        // Alternate which of the pair runs first, so neither side
        // systematically inherits the other's warm caches or host drift.
        let (plain, traced) = if pairs.is_multiple_of(2) {
            let plain = iterate_untraced(b, runner);
            (plain, b.iterate(runner))
        } else {
            let traced = b.iterate(runner);
            (iterate_untraced(b, runner), traced)
        };
        // Spans are wall-clock, so the traced wall time is what the layer
        // table sums to; the overhead compares CPU times.
        traced_wall_ms.push(traced.1);
        slowdown.push(traced.0 / plain.0);
        probes.push(time_probe(probe::STEPS));
        pairs += 1;
    }
    let profile = Profile::new(trace::stop(), pairs);

    // Parallel speed-up is a wall-clock question.
    let wide = Runner::new(nproc());
    let (mut one, mut many) = (Vec::new(), Vec::new());
    for _ in 0..SPEEDUP_PAIRS {
        one.push(b.iterate(runner).1);
        many.push(b.iterate(&wide).1);
    }

    let facts = RunFacts {
        probe_ms_p50: median(&probes),
        trace_overhead_pct: (median(&slowdown) - 1.0) * 100.0,
        speedup_nproc: median(&one) / median(&many),
        traced_iter_ms_p50: median(&traced_wall_ms),
    };
    let path = out_dir.join(format!("trace-{}.json", b.workload.name()));
    if let Err(e) = fs::create_dir_all(out_dir)
        .and_then(|()| fs::write(&path, profile.chrome_json().to_string_compact()))
    {
        eprintln!("note: cannot write {}: {e}", path.display());
    }
    let layers = match &b.last {
        Some(outcome) => layers::per_layer(&profile, outcome, facts),
        None => Vec::new(),
    };
    let table = profile.render_layers(&format!(
        "{}: traced layer self time ({} iterations, trace {})",
        b.workload.name(),
        pairs,
        path.display()
    ));
    (layers, table + "\n")
}

fn render_report(settings: &Settings, results: &[WorkloadResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "xc-benchmark  rev {}  {}  available_parallelism {}  jobs {}  clock {}  {} children x {}",
        settings.git_rev,
        settings.profile,
        settings.available_parallelism,
        settings.jobs,
        settings.clock,
        settings.children,
        match settings.seconds {
            Some(s) => format!("{s} s timed in all"),
            None => format!("{ROUNDS_PER_CHILD} rounds"),
        }
    );
    for w in results {
        let per_round = Workload::from_name(w.name).map_or(1, Workload::per_round);
        let _ = writeln!(
            out,
            "\n== {} (seed {}): {} timed rounds x {} iteration(s) ==",
            w.name, w.seed, w.rounds, per_round
        );
        for (def, samples) in &w.end_to_end {
            let [p25, p50, p75] = quartiles(samples);
            let _ = writeln!(
                out,
                "  {:<36} {:>12.4} {:<10} p25 {:.4}  p75 {:.4}  n={}  bound {:.0}%",
                def.name,
                p50,
                def.unit,
                p25,
                p75,
                samples.len(),
                def.bound * 100.0
            );
        }
        let _ = writeln!(
            out,
            "  {:<36} {:>12.4} {:<10} {} of {} iterations failed",
            OPS_FAILED.name,
            w.ops_failed_frac(),
            OPS_FAILED.unit,
            w.failed,
            w.attempted
        );
        for (def, v) in &w.per_layer {
            let _ = writeln!(out, "  {:<36} {:>12.4} {}", def.name, v, def.unit);
        }
        for f in &w.failures {
            let _ = writeln!(out, "  FAILED: {f}");
        }
    }
    out.push('\n');
    out
}

/// The final stdout line: `{"correct", "attempted", "failed", "metrics"}`.
/// Metric names carry a `<workload>/` prefix when a run covers several
/// workloads.
fn result_line(results: &[WorkloadResult], end_to_end: bool, per_layer: bool) -> (String, bool) {
    let attempted: u64 = results.iter().map(|w| w.attempted).sum();
    let failed: u64 = results.iter().map(|w| w.failed).sum();
    let correct = failed == 0
        && results.iter().all(|w| {
            // A workload with no per-layer metrics lost every traced
            // iteration; one with no rounds never got timed.
            (!end_to_end || w.rounds > 0) && (!per_layer || w.per_layer.len() == PER_LAYER.len())
        });
    let mut metrics = Vec::new();
    for w in results {
        let name = |m: &str| {
            if results.len() == 1 {
                m.to_owned()
            } else {
                format!("{}/{m}", w.name)
            }
        };
        let entry = |def: &MetricDef, v: f64| {
            (
                name(def.name),
                json_object([("value", Json::Num(v)), ("unit", Json::from(def.unit))]),
            )
        };
        if end_to_end {
            for def in &END_TO_END {
                let v = w
                    .end_to_end
                    .iter()
                    .find(|(d, _)| d.name == def.name)
                    .map_or(f64::NAN, |(_, s)| median(s));
                metrics.push(entry(def, v));
            }
        }
        if per_layer {
            metrics.extend(w.per_layer.iter().map(|(d, v)| entry(d, *v)));
        }
    }
    let line = json_object([
        ("correct", Json::from(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", json_object(metrics)),
    ]);
    (line.to_string_compact(), correct)
}

/// `--write-golden`: two iterations per workload at its default seed;
/// writes the table only when both agree and keep every invariant.
fn write_golden(args: &Args) -> ExitCode {
    let runner = Runner::new(1);
    let mut ok = true;
    for &w in &args.workloads {
        if args.seed.is_some_and(|s| s != w.default_seed()) {
            eprintln!(
                "error: golden tables are made at the default seed ({} for {})",
                w.default_seed(),
                w.name()
            );
            return ExitCode::from(2);
        }
        let run = || {
            catch_unwind(AssertUnwindSafe(|| {
                w.run(Size::Full, w.default_seed(), &runner)
            }))
            .map_err(panic_message)
        };
        let written = match (run(), run()) {
            (Ok(a), Ok(_)) if !a.problems.is_empty() => Err(a.problems.join("; ")),
            (Ok(a), Ok(b)) if a.table != b.table => Err(format!(
                "two iterations disagree: {}",
                first_difference(&a.table, &b.table)
            )),
            (Ok(a), Ok(_)) => {
                let path = Path::new(env!("CARGO_MANIFEST_DIR"))
                    .join("golden")
                    .join(format!("{}.txt", w.name()));
                fs::write(&path, &a.table)
                    .map(|()| path)
                    .map_err(|e| format!("cannot write golden table: {e}"))
            }
            (Err(e), _) | (_, Err(e)) => Err(e),
        };
        match written {
            Ok(path) => eprintln!("{}: wrote {}", w.name(), path.display()),
            Err(e) => {
                eprintln!("error: {}: {e}; golden table not written", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare(a: &Path, b: &Path) -> ExitCode {
    let load = |p: &Path| -> Result<Json, String> {
        let text = fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    match load(a).and_then(|a| load(b).and_then(|b| report::compare(&a, &b))) {
        Ok((text, any_worse)) => {
            print!("{text}");
            if any_worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_a_single_workload_command_line() {
        let a = parse(&[
            "--workload",
            "closed_loop",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workloads, [Workload::ClosedLoop]);
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (Some(3), Some(10), Some(false))
        );
        let all = parse(&[]).unwrap();
        assert_eq!(all.workloads, Workload::ALL);
        assert_eq!(all.mode, Mode::Measure);
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed"]).is_err());
    }

    #[test]
    fn check_fixes_the_reference_then_compares() {
        let out = |table: &str| Outcome {
            table: table.to_owned(),
            counts: Vec::new(),
            problems: Vec::new(),
        };
        let mut expected = None;
        assert!(check(&mut expected, &out("a\nb\n")).is_ok());
        assert!(check(&mut expected, &out("a\nb\n")).is_ok());
        let err = check(&mut expected, &out("a\nc\n")).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let mut broken = out("a\nb\n");
        broken.problems.push("ledger".to_owned());
        assert!(check(&mut expected, &broken).is_err());
    }
}
