//! Verify lint — structured diagnostics sweep over the Table 1 corpus
//! (see the `verify_lint` binary).
//!
//! Where `verify_study` asks *how many* sites each analyzer generation
//! proves, this harness asks *what the analyzer has to say about every
//! site it could not prove silently*: each application's wrapper
//! library is analyzed with the default (interprocedural) verifier and
//! every non-trivially-`Safe` site becomes a [`LintFinding`] — a stable
//! rule id (`XV0xx` coverage gaps, `XV1xx` proven-unsafe structure,
//! `XV000` upgrade notes), a severity, the rendered reason chain, and a
//! fix hint. The sweep reports per-rule counts and the corpus coverage
//! percentage, and the binary gates coverage against committed floors.
//!
//! Everything here is deterministic (no wall-time columns), so the
//! golden table (`tests/golden.rs`) pins the binary's full output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use xcontainers::prelude::*;
use xcontainers::verify::{lint_report, summarize, LintFinding, Severity, Verifier};
use xcontainers::workloads::table1::table1_profiles;

use crate::runner::Runner;
use crate::Finding;

/// Minimum corpus coverage (percent of sites proved `Safe`) the gate
/// accepts. The interprocedural analyzer proves the whole corpus; a
/// regression that loses even MySQL's one shim site lands at ~98.2%.
pub const COVERAGE_FLOOR_PCT: f64 = 99.5;

/// Maximum `Unknown` verdicts the gate accepts across the corpus.
pub const UNKNOWN_CEILING: usize = 0;

/// Whether `unknown` passes the [`UNKNOWN_CEILING`] gate. The ceiling
/// is currently the type's minimum, which makes a naive `<=` trip
/// clippy; the helper keeps the ceiling semantics if it is ever raised.
#[allow(clippy::absurd_extreme_comparisons)]
pub fn within_unknown_ceiling(unknown: usize) -> bool {
    unknown <= UNKNOWN_CEILING
}

/// Lint results for one application's wrapper library.
#[derive(Debug, Clone)]
pub struct LintRow {
    /// Application name.
    pub name: &'static str,
    /// Total syscall sites.
    pub total: usize,
    /// Sites proved `Safe` (including upgrades).
    pub safe: usize,
    /// Sites left `Unknown`.
    pub unknown: usize,
    /// Sites proven `Unsafe`.
    pub unsafe_: usize,
    /// Sites upgraded by interprocedural propagation.
    pub upgraded: usize,
    /// Structured findings, in site order.
    pub findings: Vec<LintFinding>,
}

/// Full sweep output: one row per Table 1 application.
#[derive(Debug, Clone)]
pub struct Output {
    /// Per-application rows, in Table 1 order.
    pub rows: Vec<LintRow>,
}

impl Output {
    /// Total syscall sites across the corpus.
    pub fn total_sites(&self) -> usize {
        self.rows.iter().map(|r| r.total).sum()
    }

    /// Total sites proved `Safe`.
    pub fn total_safe(&self) -> usize {
        self.rows.iter().map(|r| r.safe).sum()
    }

    /// Total `Unknown` verdicts.
    pub fn total_unknown(&self) -> usize {
        self.rows.iter().map(|r| r.unknown).sum()
    }

    /// Total interprocedural upgrades.
    pub fn total_upgraded(&self) -> usize {
        self.rows.iter().map(|r| r.upgraded).sum()
    }

    /// Corpus coverage percentage.
    pub fn coverage_pct(&self) -> f64 {
        if self.total_sites() == 0 {
            100.0
        } else {
            100.0 * self.total_safe() as f64 / self.total_sites() as f64
        }
    }

    /// Findings-per-rule counts across the corpus.
    pub fn rule_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for r in &self.rows {
            for f in &r.findings {
                *counts.entry(f.rule).or_insert(0) += 1;
            }
        }
        counts
    }

    /// The findings recorded to `results/verify_lint.json`.
    pub fn findings(&self) -> Vec<Finding> {
        vec![
            Finding {
                experiment: "verify_lint",
                metric: "corpus_coverage_pct".to_owned(),
                paper: format!("at least {COVERAGE_FLOOR_PCT}% of sites proved Safe"),
                measured: self.coverage_pct(),
                in_band: self.coverage_pct() >= COVERAGE_FLOOR_PCT,
            },
            Finding {
                experiment: "verify_lint",
                metric: "unknown_sites".to_owned(),
                paper: format!("at most {UNKNOWN_CEILING} Unknown verdicts"),
                measured: self.total_unknown() as f64,
                in_band: within_unknown_ceiling(self.total_unknown()),
            },
            Finding {
                experiment: "verify_lint",
                metric: "error_findings".to_owned(),
                paper: "0 proven-unsafe sites in the corpus".to_owned(),
                measured: self
                    .rows
                    .iter()
                    .flat_map(|r| &r.findings)
                    .filter(|f| f.severity == Severity::Error)
                    .count() as f64,
                in_band: self.rows.iter().all(|r| r.unsafe_ == 0),
            },
        ]
    }

    /// Exactly what the `verify_lint` binary prints to stdout.
    pub fn render(&self) -> String {
        let mut table = Table::new(
            "Verify lint: structured diagnostics over the Table 1 corpus",
            &[
                "Application",
                "sites",
                "safe",
                "unknown",
                "unsafe",
                "upgraded",
                "findings",
            ],
        );
        for r in &self.rows {
            table.row([
                Cell::from(r.name),
                Cell::Num(r.total as f64, 0),
                Cell::Num(r.safe as f64, 0),
                Cell::Num(r.unknown as f64, 0),
                Cell::Num(r.unsafe_ as f64, 0),
                Cell::Num(r.upgraded as f64, 0),
                Cell::Num(r.findings.len() as f64, 0),
            ]);
        }
        let mut out = String::new();
        table.render_into(&mut out);
        out.push_str("\nrule counts:");
        if self.rule_counts().is_empty() {
            out.push_str(" none");
        }
        for (rule, count) in self.rule_counts() {
            let _ = write!(out, " {rule}\u{d7}{count}");
        }
        let _ = writeln!(
            out,
            "\ncoverage: {}/{} sites ({:.1}%), {} upgraded interprocedurally",
            self.total_safe(),
            self.total_sites(),
            self.coverage_pct(),
            self.total_upgraded(),
        );
        for r in &self.rows {
            if r.findings.is_empty() {
                continue;
            }
            let _ = writeln!(out, "\n--- {} ---", r.name);
            out.push_str(&xcontainers::verify::render_text(&r.findings));
        }
        out
    }
}

/// Lints one application's wrapper library.
fn cell(name: &'static str, image: &BinaryImage, sites: usize) -> LintRow {
    let analysis = Verifier::new().analyze(image);
    let summary = summarize(analysis.report());
    LintRow {
        name,
        total: sites,
        safe: summary.safe,
        unknown: summary.unknown,
        unsafe_: summary.unsafe_sites,
        upgraded: summary.upgraded,
        findings: lint_report(analysis.report()),
    }
}

/// Runs the sweep.
pub fn run(runner: &Runner) -> Output {
    let profiles = table1_profiles();
    let rows = runner.run(profiles.len(), |i| {
        let p = &profiles[i];
        cell(p.name, &p.library(), p.sites.len())
    });
    Output { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_fully_covered_and_gates_pass() {
        let out = run(&Runner::new(1));
        assert_eq!(out.rows.len(), 12);
        assert_eq!(out.total_unknown(), 0);
        assert!(out.coverage_pct() >= COVERAGE_FLOOR_PCT);
        assert_eq!(out.total_upgraded(), 1, "MySQL's libc shim");
        assert_eq!(out.rule_counts().get("XV000"), Some(&1));
        assert!(out.findings().iter().all(|f| f.in_band));
    }

    #[test]
    fn render_mentions_the_upgrade_note() {
        let out = run(&Runner::new(1));
        let text = out.render();
        assert!(text.contains("--- MySQL ---"), "{text}");
        assert!(text.contains("note[XV000]"), "{text}");
    }
}
