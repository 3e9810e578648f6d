//! Result files and `--compare`.
//!
//! A result file records the run's provenance (git revision, available
//! parallelism, build profile, run length, seeds) and, per workload,
//! every end-to-end metric with its samples, so two files can be judged
//! metric by metric with [`crate::summary::verdict`].

use std::fmt::Write as _;

use xcontainers::prelude::{json_array, json_object, Json};

use crate::layers::{MetricDef, END_TO_END, OPS_FAILED, RECORDED};
use crate::summary::{quartiles, verdict, Verdict};

/// How a run was configured; two result files compare only when these
/// agree (the git revision may differ — that is what is compared).
#[derive(Debug, Clone, PartialEq)]
pub struct Settings {
    /// `git rev-parse HEAD`, or `unknown`.
    pub git_rev: String,
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// Runner worker count of the timed phase.
    pub jobs: usize,
    /// Timing child processes per workload.
    pub children: usize,
    /// Timed rounds per child, for a run without `--seconds`.
    pub rounds: Option<usize>,
    /// Timed seconds requested (`--seconds`), if the run was time-bounded.
    pub seconds: Option<u64>,
    /// Clock iterations were timed with ([`crate::clock::name`]).
    pub clock: &'static str,
}

/// One workload's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: &'static str,
    /// Seed its inputs were made from.
    pub seed: u64,
    /// Timed rounds completed, summed over the timing children.
    pub rounds: usize,
    /// Samples of each end-to-end metric measured in this run, one per
    /// timing child.
    pub end_to_end: Vec<(MetricDef, Vec<f64>)>,
    /// Iterations attempted (set-up, warm-up, timed, traced).
    pub attempted: u64,
    /// Iterations that panicked, differed from the expected table or
    /// broke an invariant.
    pub failed: u64,
    /// Per-layer metrics of the traced run.
    pub per_layer: Vec<(MetricDef, f64)>,
    /// Why iterations failed (first few).
    pub failures: Vec<String>,
}

impl WorkloadResult {
    /// Failed ÷ attempted iterations.
    pub fn ops_failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

fn num_or_null(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::Num)
}

/// The result document.
pub fn result_json(settings: &Settings, workloads: &[WorkloadResult]) -> Json {
    let attempted: u64 = workloads.iter().map(|w| w.attempted).sum();
    let failed: u64 = workloads.iter().map(|w| w.failed).sum();
    let provenance = json_object([
        ("git_rev", Json::from(settings.git_rev.clone())),
        (
            "available_parallelism",
            Json::Num(settings.available_parallelism as f64),
        ),
        ("profile", Json::from(settings.profile)),
        ("jobs", Json::Num(settings.jobs as f64)),
        ("children", Json::Num(settings.children as f64)),
        ("rounds", num_or_null(settings.rounds.map(|r| r as f64))),
        ("seconds", num_or_null(settings.seconds.map(|s| s as f64))),
        ("clock", Json::from(settings.clock)),
    ]);
    let workloads = workloads.iter().map(|w| {
        let e2e = w.end_to_end.iter().map(|(d, samples)| {
            let [p25, p50, p75] = quartiles(samples);
            (
                d.name,
                json_object([
                    ("unit", Json::from(d.unit)),
                    ("value", Json::Num(p50)),
                    ("p25", Json::Num(p25)),
                    ("p75", Json::Num(p75)),
                    ("n", Json::Num(samples.len() as f64)),
                    ("samples", json_array(samples.iter().map(|&v| Json::Num(v)))),
                ]),
            )
        });
        let layers = w.per_layer.iter().map(|(d, v)| {
            (
                d.name,
                json_object([("unit", Json::from(d.unit)), ("value", Json::Num(*v))]),
            )
        });
        json_object([
            ("name", Json::from(w.name)),
            ("seed", Json::Num(w.seed as f64)),
            ("rounds", Json::Num(w.rounds as f64)),
            ("attempted", Json::Num(w.attempted as f64)),
            ("failed", Json::Num(w.failed as f64)),
            (OPS_FAILED.name, Json::Num(w.ops_failed_frac())),
            ("end_to_end", json_object(e2e)),
            ("per_layer", json_object(layers)),
            (
                "failures",
                json_array(w.failures.iter().map(|f| Json::from(f.clone()))),
            ),
        ])
    });
    json_object([
        ("provenance", provenance),
        ("correct", Json::from(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("workloads", json_array(workloads)),
    ])
}

fn field<'a>(doc: &'a Json, path: &[&str]) -> Result<&'a Json, String> {
    let mut cur = doc;
    for key in path {
        cur = cur
            .get(key)
            .ok_or_else(|| format!("result file lacks `{}`", path.join(".")))?;
    }
    Ok(cur)
}

/// Workload name → (seed, document) of a result file.
fn workloads(doc: &Json) -> Result<Vec<(String, f64, &Json)>, String> {
    field(doc, &["workloads"])?
        .as_arr()
        .ok_or("`workloads` is not an array")?
        .iter()
        .map(|w| {
            let name = field(w, &["name"])?.as_str().ok_or("workload name")?;
            let seed = field(w, &["seed"])?.as_num().ok_or("workload seed")?;
            Ok((name.to_owned(), seed, w))
        })
        .collect()
}

fn samples(workload: &Json, metric: &str) -> Option<Vec<f64>> {
    if metric == OPS_FAILED.name {
        return workload.get(metric)?.as_num().map(|v| vec![v]);
    }
    let arr = workload
        .get("end_to_end")?
        .get(metric)?
        .get("samples")?
        .as_arr()?;
    arr.iter().map(Json::as_num).collect()
}

/// Compares parent `a` with change `b`: one line per (workload,
/// end-to-end metric) with both medians, the change and the verdict.
/// Returns the rendered table and whether any metric got worse.
///
/// # Errors
///
/// The files are malformed or their settings differ.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    for key in [
        "available_parallelism",
        "profile",
        "jobs",
        "children",
        "rounds",
        "seconds",
        "clock",
    ] {
        let (va, vb) = (
            field(a, &["provenance", key])?,
            field(b, &["provenance", key])?,
        );
        if va != vb {
            return Err(format!(
                "settings differ: {key} is {} in the first file and {} in the second",
                va.to_string_compact(),
                vb.to_string_compact()
            ));
        }
    }
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let names = |w: &[(String, f64, &Json)]| -> Vec<(String, f64)> {
        w.iter().map(|(n, s, _)| (n.clone(), *s)).collect()
    };
    if names(&wa) != names(&wb) {
        return Err(format!(
            "settings differ: workloads and seeds {:?} vs {:?}",
            names(&wa),
            names(&wb)
        ));
    }
    let rev = |doc: &Json| {
        field(doc, &["provenance", "git_rev"])
            .ok()
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_owned()
    };
    let mut out = String::new();
    let _ = writeln!(out, "A = {}   B = {}", rev(a), rev(b));
    let _ = writeln!(
        out,
        "{:<14} {:<16} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "delta", "bound"
    );
    let mut any_worse = false;
    for ((name, _, ja), (_, _, jb)) in wa.iter().zip(&wb) {
        for def in END_TO_END.iter().chain(&RECORDED) {
            let (Some(sa), Some(sb)) = (samples(ja, def.name), samples(jb, def.name)) else {
                continue;
            };
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            let (ma, mb) = (quartiles(&sa)[1], quartiles(&sb)[1]);
            let delta = if ma == 0.0 {
                format!("{:+.4}", mb - ma)
            } else {
                format!("{:+.2}%", (mb - ma) / ma * 100.0)
            };
            let v = verdict(&sa, &sb, def.bound, def.better);
            any_worse |= v == Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<14} {:<16} {:>12.4} {:>12.4} {:>9} {:>6.0}%  {}",
                name,
                def.name,
                ma,
                mb,
                delta,
                def.bound * 100.0,
                v.as_str()
            );
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{ITER_MS, ITER_REL};

    fn settings(rounds: usize) -> Settings {
        Settings {
            git_rev: "abc".to_owned(),
            available_parallelism: 2,
            profile: "release",
            jobs: 1,
            children: 7,
            rounds: Some(rounds),
            seconds: None,
            clock: "thread-cpu",
        }
    }

    fn workload(scale: f64) -> WorkloadResult {
        WorkloadResult {
            name: "cluster_open",
            seed: 42,
            rounds: 4,
            end_to_end: vec![
                (
                    ITER_REL,
                    vec![6.0 * scale, 6.01 * scale, 5.99 * scale, 6.0 * scale],
                ),
                (ITER_MS, vec![300.0, 301.0, 299.0, 300.0]),
            ],
            attempted: 10,
            failed: 0,
            per_layer: Vec::new(),
            failures: Vec::new(),
        }
    }

    #[test]
    fn round_trips_and_judges() {
        let a =
            Json::parse(&result_json(&settings(4), &[workload(1.0)]).to_string_compact()).unwrap();
        let b =
            Json::parse(&result_json(&settings(4), &[workload(1.3)]).to_string_compact()).unwrap();
        let (same, worse) = compare(&a, &a).unwrap();
        assert!(!worse);
        assert!(same.contains("unchanged"));
        let (text, worse) = compare(&a, &b).unwrap();
        assert!(worse, "{text}");
        assert!(text.contains("iter_rel_p50") && text.contains("worse"));
    }

    #[test]
    fn refuses_different_settings() {
        let a = result_json(&settings(4), &[workload(1.0)]);
        let b = result_json(&settings(8), &[workload(1.0)]);
        let err = compare(&a, &b).unwrap_err();
        assert!(err.contains("rounds"), "{err}");
        let mut other_seed = workload(1.0);
        other_seed.seed = 43;
        let c = result_json(&settings(4), &[other_seed]);
        assert!(compare(&a, &c).is_err());
    }
}
