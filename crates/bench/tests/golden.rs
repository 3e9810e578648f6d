//! One golden table pins every harness binary.
//!
//! Each run starts a harness binary in a fresh directory and checks that
//! it exits 0, that the one `results/*.json` file it wrote is the only
//! file it left (nothing outside `results/`), that every finding in
//! that file is `in_band`, and that FNV-1a over its stdout followed by
//! that file equals the case's row in `golden/outputs.txt`. Each paper
//! claim is a finding of the harness that draws its figure, so the
//! `in_band` check covers every claim, and a failure names every
//! finding outside its band (`tests/paper_claims.rs` groups the same
//! findings into one test per claim). Grid
//! harnesses run at `--jobs 1` and `-j 3` against one row, which pins
//! worker-count invariance and both spellings of the flag; the serial
//! harnesses take no `--jobs` and run once. A flag that
//! only adds diagnostics on stderr (`verify_study --profile`) runs
//! against the row of the plain case, which pins that it leaves stdout
//! and the results file alone. Each case also runs once more with an
//! argument no binary takes, which must exit 2 before anything runs:
//! nothing on stdout and no file left. On a
//! mismatch the failure prints the whole corrected table: check that
//! only the rows meant to move did, and paste it over
//! `golden/outputs.txt`. Every binary in `src/bin/` must have a case.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use xc_bench::runner::Runner;
use xc_bench::RESULTS_DIR;
use xc_sim::fnv::{fnv1a, FNV_OFFSET};
use xc_sim::report::Json;

/// Comment lines, then one `<binary> [args] <digest>` row per case.
const TABLE: &str = include_str!("../golden/outputs.txt");

/// An argument no harness binary takes.
const UNKNOWN_ARG: &str = "--no-such-flag";

/// One table row: the binary and the arguments that shape its output,
/// whether it runs a `Runner` grid (and so takes `--jobs`), and flags
/// that must leave its stdout and results file unchanged (the case also
/// runs with each of them, against the same row).
struct Case {
    key: &'static str,
    exe: &'static str,
    grid: bool,
    same_with: &'static [&'static str],
}

macro_rules! case {
    ($bin:literal $(, $arg:literal)*; $grid:expr $(; $($same:literal),+)?) => {
        Case {
            key: concat!($bin $(, " ", $arg)*),
            exe: env!(concat!("CARGO_BIN_EXE_", $bin)),
            grid: $grid,
            same_with: &[$($($same),+)?],
        }
    };
}

const CASES: &[Case] = &[
    case!("fig3_macro"; true),
    case!("fig4_syscall"; false),
    case!("fig5_micro"; false),
    case!("fig8_scalability"; false),
    case!("ablations"; false),
    case!("verify_study"; true; "--profile"),
    case!("all_experiments"; true),
    case!("cluster_study"; true),
    case!("cluster_study", "--quick"; true),
    case!("chaos_study"; true),
    case!("chaos_study", "--quick"; true),
    case!("table1"; false),
    case!("fig6_libos"; false),
    case!("fig9_loadbalance"; false),
    case!("spawn_time"; false),
    case!("security_matrix"; false),
    case!("rdma_study"; false),
];

/// One checked run: a single invocation of a case's binary, in a
/// directory of its own.
struct Run {
    case: usize,
    args: Vec<&'static str>,
}

fn plan() -> Vec<Run> {
    let mut runs = Vec::new();
    for (case, c) in CASES.iter().enumerate() {
        let args: Vec<&str> = c.key.split(' ').skip(1).collect();
        let jobs: &[&[&str]] = if c.grid {
            &[&["--jobs", "1"], &["-j", "3"]]
        } else {
            &[&[]]
        };
        let extras = std::iter::once(&[][..]).chain(c.same_with.iter().map(std::slice::from_ref));
        for extra in extras {
            for j in jobs {
                let args = [&args[..], extra, j].concat();
                runs.push(Run { case, args });
            }
        }
        let args = [&args[..], &[UNKNOWN_ARG]].concat();
        runs.push(Run { case, args });
    }
    runs
}

/// Every file under `dir`, at any depth.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(d) = pending.pop() {
        for entry in fs::read_dir(&d).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                pending.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files
}

/// Executes `run` in `dir` and checks it against the committed digest
/// `want`; returns the digest it measured (when it wrote one results
/// file) and every problem found. A run with [`UNKNOWN_ARG`] is checked
/// for a usage error instead: exit 2, empty stdout, and no file left.
fn execute(run: &Run, dir: &Path, want: Option<u64>) -> (Option<u64>, Vec<String>) {
    let bin = CASES[run.case].key.split(' ').next().unwrap_or_default();
    let label = format!("`{}`", [&[bin], &run.args[..]].concat().join(" "));
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).expect("create run directory");
    let mut problems = Vec::new();
    let out = Command::new(CASES[run.case].exe)
        .args(&run.args)
        .current_dir(dir)
        .output()
        .expect("spawn harness binary");
    if run.args.contains(&UNKNOWN_ARG) {
        if out.status.code() != Some(2) {
            problems.push(format!("{label}: {}, want exit 2", out.status));
        }
        if !out.stdout.is_empty() {
            problems.push(format!("{label}: printed to stdout, want nothing"));
        }
        let left = files_under(dir);
        if !left.is_empty() {
            problems.push(format!("{label}: left {left:?}, want no file"));
        }
        if problems.is_empty() {
            let _ = fs::remove_dir_all(dir);
        }
        return (None, problems);
    }
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        problems.push(format!("{label}: {}, want exit 0:\n{stderr}", out.status));
    }
    let results: Vec<_> = fs::read_dir(dir.join(RESULTS_DIR))
        .into_iter()
        .flatten()
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.is_file() && p.extension().is_some_and(|x| x == "json"))
        .collect();
    let strays: Vec<_> = files_under(dir)
        .into_iter()
        .filter(|p| !results.contains(p))
        .collect();
    if !strays.is_empty() {
        problems.push(format!("{label}: left {strays:?} besides its results file"));
    }
    let [path] = &results[..] else {
        problems.push(format!("{label}: wrote {results:?}, want one results file"));
        return (None, problems);
    };
    let json = fs::read(path).expect("read results file");
    problems.extend(
        out_of_band(&String::from_utf8_lossy(&json))
            .into_iter()
            .map(|p| format!("{label}: {p}")),
    );
    let digest = fnv1a(fnv1a(FNV_OFFSET, &out.stdout), &json);
    if want != Some(digest) {
        let key = CASES[run.case].key;
        problems.push(format!(
            "{label}: digest {digest:016x} differs from row `{key}`"
        ));
    }
    if problems.is_empty() {
        let _ = fs::remove_dir_all(dir);
    }
    (Some(digest), problems)
}

/// Names every finding in a results file that is not in its band: its
/// experiment, metric, measured value and paper text. A file that does
/// not parse, or holds no findings, is a problem too.
fn out_of_band(results: &str) -> Vec<String> {
    let doc = match Json::parse(results) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("results file does not parse: {e}")],
    };
    let findings = doc.as_arr().unwrap_or_default();
    if findings.is_empty() {
        return vec!["results file holds no findings".to_owned()];
    }
    let text = |f: &Json, key| f.get(key).and_then(Json::as_str).unwrap_or("?").to_owned();
    findings
        .iter()
        .filter(|f| f.get("in_band") != Some(&Json::Bool(true)))
        .map(|f| {
            let measured = f
                .get("measured")
                .map_or("?".to_owned(), Json::to_string_compact);
            format!(
                "{}/{} measured {measured}, outside its band (paper: {})",
                text(f, "experiment"),
                text(f, "metric"),
                text(f, "paper"),
            )
        })
        .collect()
}

#[test]
fn every_harness_binary_matches_its_golden_row() {
    let (comments, rows): (Vec<&str>, Vec<&str>) = TABLE
        .lines()
        .filter(|l| !l.trim().is_empty())
        .partition(|l| l.starts_with('#'));
    let golden: Vec<(&str, u64)> = rows
        .iter()
        .map(|l| {
            let (key, hex) = l.rsplit_once(' ').expect("row is `<case> <digest>`");
            let digest = u64::from_str_radix(hex, 16).expect("digest is 16 hex digits");
            (key.trim(), digest)
        })
        .collect();
    let row = |key: &str| golden.iter().find(|(k, _)| *k == key).map(|&(_, d)| d);

    let runs = plan();
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden");
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let outcomes = Runner::new(workers).run(runs.len(), |i| {
        let want = row(CASES[runs[i].case].key);
        execute(&runs[i], &root.join(format!("run{i:02}")), want)
    });

    let mut problems = Vec::new();
    let mut fresh: Vec<Option<u64>> = vec![None; CASES.len()];
    for (run, (digest, run_problems)) in runs.iter().zip(outcomes) {
        problems.extend(run_problems);
        if let Some(digest) = digest {
            fresh[run.case].get_or_insert(digest);
        }
    }
    for (key, _) in &golden {
        if !CASES.iter().any(|c| c.key == *key) {
            problems.push(format!("golden row `{key}` matches no case"));
        }
    }

    let width = CASES.iter().map(|c| c.key.len()).max().unwrap_or(0);
    let mut corrected: String = comments.iter().map(|l| format!("{l}\n")).collect();
    for (c, digest) in CASES.iter().zip(fresh) {
        let digest = digest.or_else(|| row(c.key));
        let digest = digest.map_or("missing".to_owned(), |d| format!("{d:016x}"));
        corrected.push_str(&format!("{:<width$} {digest}\n", c.key));
    }
    assert!(
        problems.is_empty(),
        "{} golden problem(s):\n{}\n\ncorrected golden/outputs.txt:\n\n{corrected}",
        problems.len(),
        problems.join("\n"),
    );
}

#[test]
fn every_harness_binary_has_a_case() {
    let bins = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let mut missing: Vec<String> = fs::read_dir(&bins)
        .expect("read src/bin")
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .filter_map(|p| Some(p.file_stem()?.to_string_lossy().into_owned()))
        .filter(|bin| !CASES.iter().any(|c| c.key.split(' ').next() == Some(bin)))
        .collect();
    missing.sort();
    assert!(
        missing.is_empty(),
        "binaries in {} without a golden case: {missing:?}",
        bins.display()
    );
}

#[test]
fn out_of_band_names_each_broken_claim() {
    let ok = r#"{"experiment":"fig4","metric":"a","paper":"27x","measured":32,"in_band":true}"#;
    let bad = r#"{"experiment":"fig4","metric":"b","paper":"27x","measured":9.5,"in_band":false}"#;
    assert!(out_of_band(&format!("[{ok}]")).is_empty());
    let problems = out_of_band(&format!("[{ok},{bad}]"));
    assert_eq!(problems.len(), 1, "{problems:?}");
    assert_eq!(
        problems[0],
        "fig4/b measured 9.5, outside its band (paper: 27x)"
    );
    assert_eq!(out_of_band("[]"), ["results file holds no findings"]);
    assert!(out_of_band("[{")[0].starts_with("results file does not parse"));
}
