//! Perf-regression gate over the `BENCH_runner.json` trajectory.
//!
//! `scripts/check.sh --bench` snapshots the committed ledger, re-runs
//! the gated harnesses to refresh it, and then calls the `bench_gate`
//! binary, which compares the fresh wall times against the snapshot
//! through [`check`]: a gated harness whose fresh `wall_ms` exceeds the
//! committed one by more than [`MAX_RATIO`] — and by more than the
//! [`ABS_SLACK_MS`] jitter floor — fails the gate. Wall time
//! is only comparable within one host and worker count, so a missing
//! committed entry or a `jobs` mismatch downgrades to a skip-with-note;
//! a missing *fresh* entry is a hard failure (the harness did not
//! report). `XC_BENCH_GATE=off` disarms the gate entirely — the escape
//! hatch for hosts whose timing is too noisy to gate on.
//!
//! The ledger is the runner's own format (one compact JSON object per
//! line inside a top-level array), parsed with the same hand-rolled
//! line scanning the rest of the repo uses — no serde.

use std::fmt::Write as _;

/// Harnesses whose wall time the gate enforces: the heaviest pipelines,
/// where a reducer or event-queue regression would actually show, plus
/// the fast analysis gates (`chaos_study`, `verify_lint`), which cover
/// the chaos world and the verifier's copy-on-write fixpoint.
pub const GATED_HARNESSES: [&str; 5] = [
    "fig3_macro",
    "all_experiments",
    "cluster_study",
    "chaos_study",
    "verify_lint",
];

/// Fresh wall time may be at most this multiple of the committed one
/// (35% headroom — far above same-host scheduler noise, low enough to
/// catch an accidental O(n²) or a lost vectorization).
pub const MAX_RATIO: f64 = 1.35;

/// Absolute slack added on top of the ratio budget: a fresh time within
/// `committed + ABS_SLACK_MS` always passes. On millisecond-scale
/// harnesses (`verify_lint` runs in under 1 ms) the ratio alone would
/// gate on scheduler jitter, which is several ms regardless of how
/// small the workload is; the slack floors the budget at the noise
/// scale without loosening it for the heavy pipelines.
pub const ABS_SLACK_MS: f64 = 5.0;

/// Environment variable that disarms the gate (`off`).
pub const GATE_ENV: &str = "XC_BENCH_GATE";

/// How the [`GATE_ENV`] switch resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GateMode {
    /// Gate runs (variable unset, empty, or explicitly `on`).
    Armed,
    /// `XC_BENCH_GATE=off`: gate skips the comparison.
    Disarmed,
    /// Any other value: the gate still runs — garbage must never
    /// silently disarm a CI gate — but the caller should warn with the
    /// carried raw value so the typo (`Off`, `0`, `false`, …) is
    /// visible instead of being treated as an implicit `on`.
    ArmedInvalid(String),
}

/// Resolves a raw [`GATE_ENV`] value strictly: only the exact strings
/// `off` (disarm) and `on`/unset/empty (arm) are recognized.
pub fn gate_mode_from(raw: Option<&str>) -> GateMode {
    match raw.map(str::trim) {
        None | Some("") | Some("on") => GateMode::Armed,
        Some("off") => GateMode::Disarmed,
        Some(other) => GateMode::ArmedInvalid(other.to_owned()),
    }
}

/// Reads [`GATE_ENV`] from the environment and resolves it.
pub fn gate_mode() -> GateMode {
    gate_mode_from(std::env::var(GATE_ENV).ok().as_deref())
}

/// One ledger row's gate-relevant fields.
#[derive(Debug, Clone, PartialEq)]
pub struct GateEntry {
    /// Harness name (the ledger key).
    pub harness: String,
    /// Worker count the row was measured at.
    pub jobs: u64,
    /// Measured wall time, milliseconds.
    pub wall_ms: f64,
}

/// Verdict for one gated harness.
#[derive(Debug, Clone, PartialEq)]
pub enum GateStatus {
    /// Within budget; carries `fresh / committed`.
    Pass(f64),
    /// Not comparable on this host — noted, never fatal.
    Skip(String),
    /// Regression or missing fresh measurement — fails the gate.
    Fail(String),
}

/// One harness's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// The gated harness.
    pub harness: &'static str,
    /// Its verdict.
    pub status: GateStatus,
}

/// Extracts the string value of `"key":"..."` from one ledger line.
fn str_field(line: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\":\"");
    let start = line.find(&marker)? + marker.len();
    let end = line[start..].find('"')?;
    Some(line[start..start + end].to_owned())
}

/// Extracts the numeric value of `"key":<num>` from one ledger line.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let marker = format!("\"{key}\":");
    let start = line.find(&marker)? + marker.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses a ledger body into its gate-relevant rows. Lines missing any
/// required field are ignored (same tolerance as the runner's reader).
pub fn parse_entries(body: &str) -> Vec<GateEntry> {
    body.lines()
        .map(str::trim)
        .filter(|l| l.starts_with('{'))
        .filter_map(|l| {
            Some(GateEntry {
                harness: str_field(l, "harness")?,
                jobs: num_field(l, "jobs")? as u64,
                wall_ms: num_field(l, "wall_ms")?,
            })
        })
        .collect()
}

fn find<'a>(entries: &'a [GateEntry], harness: &str) -> Option<&'a GateEntry> {
    entries.iter().find(|e| e.harness == harness)
}

/// Compares `fresh` against `committed` for every gated harness.
pub fn check(committed: &str, fresh: &str, max_ratio: f64) -> Vec<GateOutcome> {
    let committed = parse_entries(committed);
    let fresh = parse_entries(fresh);
    GATED_HARNESSES
        .iter()
        .map(|&harness| {
            let status = match (find(&committed, harness), find(&fresh, harness)) {
                (_, None) => GateStatus::Fail("no fresh measurement in the ledger".to_owned()),
                (None, Some(_)) => {
                    GateStatus::Skip("no committed baseline entry to compare against".to_owned())
                }
                (Some(base), Some(new)) if base.jobs != new.jobs => GateStatus::Skip(format!(
                    "jobs mismatch (committed --jobs {}, fresh --jobs {})",
                    base.jobs, new.jobs
                )),
                (Some(base), Some(_)) if base.wall_ms <= 0.0 => {
                    GateStatus::Skip("committed wall time is zero".to_owned())
                }
                (Some(base), Some(new)) => {
                    let ratio = new.wall_ms / base.wall_ms;
                    if ratio > max_ratio && new.wall_ms > base.wall_ms + ABS_SLACK_MS {
                        GateStatus::Fail(format!(
                            "{:.1}ms vs committed {:.1}ms ({:.2}x > {:.2}x budget)",
                            new.wall_ms, base.wall_ms, ratio, max_ratio
                        ))
                    } else {
                        GateStatus::Pass(ratio)
                    }
                }
            };
            GateOutcome { harness, status }
        })
        .collect()
}

/// Renders the outcomes as the gate's stdout report; the bool is
/// whether any outcome failed.
pub fn render(outcomes: &[GateOutcome], max_ratio: f64) -> (String, bool) {
    let mut text = format!("Perf regression gate (budget {max_ratio:.2}x committed wall time):\n");
    let mut failed = false;
    for o in outcomes {
        match &o.status {
            GateStatus::Pass(ratio) => {
                let _ = writeln!(text, "  ok   {:<16} {ratio:.2}x", o.harness);
            }
            GateStatus::Skip(why) => {
                let _ = writeln!(text, "  skip {:<16} {why}", o.harness);
            }
            GateStatus::Fail(why) => {
                failed = true;
                let _ = writeln!(text, "  FAIL {:<16} {why}", o.harness);
            }
        }
    }
    (text, failed)
}

/// One-line before→after wall-time summary over the gated harnesses,
/// for `check.sh --bench`'s log: committed vs fresh milliseconds plus
/// the ratio, with `?` for entries missing on either side.
pub fn deltas_line(committed: &str, fresh: &str) -> String {
    let committed = parse_entries(committed);
    let fresh = parse_entries(fresh);
    let cols: Vec<String> = GATED_HARNESSES
        .iter()
        .map(
            |&harness| match (find(&committed, harness), find(&fresh, harness)) {
                (Some(base), Some(new)) if base.wall_ms > 0.0 => format!(
                    "{harness} {:.1}→{:.1}ms ({:.2}x)",
                    base.wall_ms,
                    new.wall_ms,
                    new.wall_ms / base.wall_ms
                ),
                (Some(base), Some(new)) => {
                    format!("{harness} {:.1}→{:.1}ms", base.wall_ms, new.wall_ms)
                }
                (None, Some(new)) => format!("{harness} ?→{:.1}ms", new.wall_ms),
                (Some(base), None) => format!("{harness} {:.1}→?ms", base.wall_ms),
                (None, None) => format!("{harness} ?→?"),
            },
        )
        .collect();
    format!("wall-time deltas: {}", cols.join(" | "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(harness: &str, jobs: u64, wall_ms: f64) -> String {
        format!("{{\"harness\":\"{harness}\",\"jobs\":{jobs},\"host_parallelism\":1,\"wall_ms\":{wall_ms}}}")
    }

    fn ledger(rows: &[(&str, u64, f64)]) -> String {
        let body: Vec<String> = rows.iter().map(|&(h, j, w)| line(h, j, w)).collect();
        format!("[\n{}\n]\n", body.join(",\n"))
    }

    fn full(scale: f64) -> String {
        ledger(&[
            ("fig3_macro", 2, 110.0 * scale),
            ("all_experiments", 2, 35.0 * scale),
            ("cluster_study", 1, 450.0 * scale),
            ("chaos_study", 1, 18.0 * scale),
            ("verify_lint", 1, 0.8 * scale),
        ])
    }

    #[test]
    fn parses_the_runner_ledger_format() {
        let entries = parse_entries(&full(1.0));
        assert_eq!(entries.len(), 5);
        assert_eq!(entries[0].harness, "fig3_macro");
        assert_eq!(entries[0].jobs, 2);
        assert_eq!(entries[0].wall_ms, 110.0);
    }

    #[test]
    fn identical_ledgers_pass() {
        let outcomes = check(&full(1.0), &full(1.0), MAX_RATIO);
        assert!(outcomes
            .iter()
            .all(|o| matches!(o.status, GateStatus::Pass(_))));
        let (text, failed) = render(&outcomes, MAX_RATIO);
        assert!(!failed, "{text}");
    }

    #[test]
    fn a_regression_beyond_budget_fails() {
        let outcomes = check(&full(1.0), &full(1.5), MAX_RATIO);
        // Every harness blows the ratio, but verify_lint's 0.4 ms excess
        // sits inside the jitter floor — only the heavy ones fail.
        for o in &outcomes {
            if o.harness == "verify_lint" {
                assert!(matches!(o.status, GateStatus::Pass(_)), "{o:?}");
            } else {
                assert!(matches!(o.status, GateStatus::Fail(_)), "{o:?}");
            }
        }
        let (text, failed) = render(&outcomes, MAX_RATIO);
        assert!(failed);
        assert!(text.contains("FAIL"));
    }

    #[test]
    fn jitter_floor_covers_millisecond_harnesses_only() {
        // 0.8 ms -> 3.2 ms is 4x the budget but within ABS_SLACK_MS of
        // the committed time: scheduler noise, not a regression.
        let fresh = ledger(&[
            ("fig3_macro", 2, 110.0),
            ("all_experiments", 2, 35.0),
            ("cluster_study", 1, 450.0),
            ("chaos_study", 1, 18.0),
            ("verify_lint", 1, 3.2),
        ]);
        let outcomes = check(&full(1.0), &fresh, MAX_RATIO);
        assert!(outcomes
            .iter()
            .all(|o| matches!(o.status, GateStatus::Pass(_))));
        // The slack must not rescue a heavy harness: +15 ms on
        // cluster_study is beyond it, and beyond the ratio.
        let slow = ledger(&[("cluster_study", 1, 450.0 * MAX_RATIO + 15.0)]);
        let outcomes = check(&full(1.0), &slow, MAX_RATIO);
        let cluster = outcomes
            .iter()
            .find(|o| o.harness == "cluster_study")
            .unwrap();
        assert!(matches!(cluster.status, GateStatus::Fail(_)), "{cluster:?}");
    }

    #[test]
    fn an_improvement_passes() {
        let outcomes = check(&full(1.0), &full(0.5), MAX_RATIO);
        assert!(outcomes
            .iter()
            .all(|o| matches!(o.status, GateStatus::Pass(_))));
    }

    #[test]
    fn missing_committed_entry_skips_with_note() {
        let committed = ledger(&[("fig3_macro", 2, 110.0)]);
        let outcomes = check(&committed, &full(1.0), MAX_RATIO);
        assert!(matches!(outcomes[0].status, GateStatus::Pass(_)));
        for o in &outcomes[1..] {
            assert!(matches!(o.status, GateStatus::Skip(_)), "{o:?}");
        }
        let (_, failed) = render(&outcomes, MAX_RATIO);
        assert!(!failed);
    }

    #[test]
    fn missing_fresh_entry_fails() {
        let fresh = ledger(&[("fig3_macro", 2, 110.0)]);
        let outcomes = check(&full(1.0), &fresh, MAX_RATIO);
        assert!(matches!(outcomes[0].status, GateStatus::Pass(_)));
        for o in &outcomes[1..] {
            assert!(matches!(o.status, GateStatus::Fail(_)), "{o:?}");
        }
    }

    #[test]
    fn deltas_line_reports_every_gated_harness() {
        let line = deltas_line(&full(1.0), &full(0.5));
        for harness in GATED_HARNESSES {
            assert!(line.contains(harness), "{line}");
        }
        assert!(line.contains("110.0→55.0ms (0.50x)"), "{line}");
        // Missing entries degrade to placeholders, never panic.
        let partial = deltas_line(&ledger(&[("fig3_macro", 2, 110.0)]), &full(1.0));
        assert!(partial.contains("cluster_study ?→450.0ms"), "{partial}");
    }

    #[test]
    fn gate_mode_is_strict_about_the_env_switch() {
        assert_eq!(gate_mode_from(None), GateMode::Armed);
        assert_eq!(gate_mode_from(Some("")), GateMode::Armed);
        assert_eq!(gate_mode_from(Some("  ")), GateMode::Armed);
        assert_eq!(gate_mode_from(Some("on")), GateMode::Armed);
        assert_eq!(gate_mode_from(Some("off")), GateMode::Disarmed);
        assert_eq!(gate_mode_from(Some(" off ")), GateMode::Disarmed);
        // Anything else arms the gate AND surfaces the garbage value —
        // a typo must never silently disarm (or silently arm) CI.
        for garbage in ["Off", "OFF", "0", "false", "no", "disarm"] {
            assert_eq!(
                gate_mode_from(Some(garbage)),
                GateMode::ArmedInvalid(garbage.to_owned()),
                "{garbage:?} must be flagged, not guessed at"
            );
        }
    }

    #[test]
    fn jobs_mismatch_skips_not_fails() {
        let fresh = ledger(&[
            ("fig3_macro", 4, 110.0),
            ("all_experiments", 2, 35.0),
            ("cluster_study", 1, 450.0),
            ("chaos_study", 1, 18.0),
            ("verify_lint", 1, 0.8),
        ]);
        let outcomes = check(&full(1.0), &fresh, MAX_RATIO);
        assert!(matches!(outcomes[0].status, GateStatus::Skip(_)));
        assert!(matches!(outcomes[1].status, GateStatus::Pass(_)));
    }
}
