//! Verify study — static patch-safety analysis over the Table 1 corpus
//! (see the `verify_study` binary).
//!
//! Four questions, answered against the same synthetic wrapper
//! libraries the Table 1 reduction study executes:
//!
//! 1. **Coverage** — how many syscall sites does `xc-verify` prove
//!    `Safe`, and what remains `Unknown`? Both analyzer generations run
//!    side by side: v1 (single-pass, intraprocedural) leaves the libc
//!    `syscall(nr)` shim wrappers `Unknown`; v2 (call graph + function
//!    summaries + abstract interpretation) propagates the caller's
//!    constant into the shim and upgrades them to `Safe`.
//! 2. **Interprocedural recovery** — the offline tool, run with
//!    `interprocedural` enabled, turns each upgraded verdict into a real
//!    detour patch (`interprocedural_recovered`).
//! 3. **Post-patch shape** — after the offline tool rewrites a library,
//!    does re-verification confirm every detour/trampoline invariant?
//! 4. **Redundancy ablation** — with `preflight_verify` enabled, does
//!    the online patcher ever get vetoed? Zero rejections means the
//!    §4.4 pattern matcher is already sound on this corpus — now proved
//!    rather than assumed.
//!
//! The same v2 analysis is linted: every `Unknown` or `Unsafe` site,
//! and every `Safe` one owed to interprocedural propagation, becomes a
//! [`LintFinding`] with a stable rule id (`XV0xx` coverage gaps, `XV1xx`
//! proven-unsafe structure, `XV000` upgrade notes), its reason chain and
//! a fix hint. [`Output::render`] ends with the per-rule counts and each
//! application's diagnostics, so every verdict the findings count is
//! also explained.
//!
//! Each application is one runner cell carrying its own
//! [`AnalysisCache`]: the coverage pass populates it and the offline
//! patcher plans from it, so every profile contributes one guaranteed
//! cache hit. The per-row analysis wall time is the only
//! nondeterministic value; it stays out of [`Output::render`] and the
//! findings (the binary prints it to stderr), so runs compare
//! byte-for-byte.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use xcontainers::abom::binaries::{invoke_with, WrapperStyle};
use xcontainers::abom::handler::XContainerKernel;
use xcontainers::abom::offline::{OfflineConfig, OfflinePatcher};
use xcontainers::abom::stats::AbomStats;
use xcontainers::prelude::*;
use xcontainers::verify::{
    lint_report, render_text, reverify, summarize, LintFinding, PipelineProfile, Stage, Verifier,
    VerifierConfig,
};
use xcontainers::workloads::table1::{table1_profiles, AppProfile};

use crate::runner::Runner;
use crate::Finding;

/// Default syscalls per application for the pre-flight ablation.
pub const SYSCALLS_PER_APP: u64 = 3_000;
/// Default root seed; each application runs on its own substream.
pub const SEED: u64 = 2019;

/// Weighted-random syscall run with an explicit ABOM config (the Table 1
/// path hard-codes the default config; the ablation needs the knob).
fn run_with_config(profile: &AppProfile, config: AbomConfig, syscalls: u64, rng: Rng) -> AbomStats {
    let weights: Vec<f64> = profile.sites.iter().map(|s| s.weight).collect();
    let mut image = profile.library();
    let mut kernel = XContainerKernel::with_config(config);
    let mut rng = rng;
    for _ in 0..syscalls {
        let idx = rng.pick_weighted(&weights);
        let site = profile.sites[idx];
        let entry = image
            .symbol(&format!("wrapper_{idx}"))
            .expect("wrapper symbol");
        let stack = site.style.takes_stack_number().then_some(site.nr);
        let rdi = site.style.takes_register_number().then_some(site.nr);
        invoke_with(&mut image, &mut kernel, entry, stack, rdi).expect("wrapper invocation");
    }
    *kernel.stats()
}

/// Everything the study learns about one application.
#[derive(Debug, Clone)]
pub struct ProfileRow {
    pub name: &'static str,
    pub sites: usize,
    pub safe: usize,
    pub unsafe_: usize,
    pub unknown: usize,
    /// `Unknown` verdicts under the v1 (intraprocedural) analyzer.
    pub v1_unknown: usize,
    /// Sites the interprocedural pass upgraded to `Safe`.
    pub upgraded: usize,
    /// Lint findings over the v2 report, in site order.
    pub lint: Vec<LintFinding>,
    /// Analysis wall time — nondeterministic, never rendered to stdout.
    pub micros: f64,
    pub reverify_ok: bool,
    pub detours: usize,
    pub detour_patched: u64,
    /// Detours owed to interprocedural upgrades.
    pub recovered: u64,
    /// Libc `syscall(nr)` shim wrappers (the expected v1 residue).
    pub shims: usize,
    pub rejections: u64,
    pub study_cache_hits: u64,
    pub study_cache_misses: u64,
    pub kernel_cache_hits: u64,
    pub kernel_cache_misses: u64,
}

/// Full study output: one row per Table 1 application.
#[derive(Debug, Clone)]
pub struct Output {
    pub rows: Vec<ProfileRow>,
    pub syscalls_per_app: u64,
}

impl Output {
    pub fn total_rejections(&self) -> u64 {
        self.rows.iter().map(|r| r.rejections).sum()
    }

    /// Combined study + kernel pre-flight cache hits.
    pub fn cache_hits(&self) -> u64 {
        self.rows
            .iter()
            .map(|r| r.study_cache_hits + r.kernel_cache_hits)
            .sum()
    }

    /// Combined study + kernel pre-flight cache misses.
    pub fn cache_misses(&self) -> u64 {
        self.rows
            .iter()
            .map(|r| r.study_cache_misses + r.kernel_cache_misses)
            .sum()
    }

    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits() + self.cache_misses();
        if total == 0 {
            0.0
        } else {
            self.cache_hits() as f64 / total as f64
        }
    }

    /// Total `Unknown` verdicts under the v1 analyzer.
    pub fn v1_unknown(&self) -> usize {
        self.rows.iter().map(|r| r.v1_unknown).sum()
    }

    /// Total `Unknown` verdicts under the v2 analyzer.
    pub fn v2_unknown(&self) -> usize {
        self.rows.iter().map(|r| r.unknown).sum()
    }

    /// The findings recorded to `results/verify_study.json`.
    pub fn findings(&self) -> Vec<Finding> {
        let mut findings = Vec::new();
        for r in &self.rows {
            findings.push(Finding {
                experiment: "verify_study",
                metric: format!("{}_safe_sites", r.name),
                paper: format!(
                    "{}/{} provable (§4.4 + interprocedural propagation)",
                    r.sites, r.sites
                ),
                measured: r.safe as f64,
                in_band: r.safe == r.sites && r.unsafe_ == 0 && r.unknown == 0,
            });
            findings.push(Finding {
                experiment: "verify_study",
                metric: format!("{}_reverify_ok", r.name),
                paper: "all detour invariants hold".to_owned(),
                measured: if r.reverify_ok { 1.0 } else { 0.0 },
                in_band: r.reverify_ok && r.detours as u64 == r.detour_patched,
            });
        }
        findings.push(Finding {
            experiment: "verify_study",
            metric: "interprocedural_unknown_reduction".to_owned(),
            paper: format!(
                "v2 strictly reduces Unknown verdicts (v1 leaves {} shim sites)",
                self.rows.iter().map(|r| r.shims).sum::<usize>()
            ),
            measured: (self.v1_unknown() - self.v2_unknown()) as f64,
            in_band: self.v2_unknown() < self.v1_unknown(),
        });
        findings.push(Finding {
            experiment: "verify_study",
            metric: "interprocedural_detours_recovered".to_owned(),
            paper: "each upgraded verdict becomes an offline detour".to_owned(),
            measured: self.rows.iter().map(|r| r.recovered).sum::<u64>() as f64,
            in_band: self.rows.iter().all(|r| r.recovered as usize == r.upgraded),
        });
        findings.push(Finding {
            experiment: "verify_study",
            metric: "preflight_rejections".to_owned(),
            paper: "0 (online patterns are sound by construction)".to_owned(),
            measured: self.total_rejections() as f64,
            in_band: self.total_rejections() == 0,
        });
        findings.push(Finding {
            experiment: "verify_study",
            metric: "analysis_cache_hit_rate".to_owned(),
            paper: "above 0 (offline pre-flight re-reads the study cache)".to_owned(),
            measured: self.cache_hit_rate(),
            in_band: self.cache_hits() > 0,
        });
        findings
    }

    /// Exactly what the `verify_study` binary prints to stdout.
    pub fn render(&self) -> String {
        let mut table = Table::new(
            "Verify study: static patch-safety analysis over the Table 1 corpus",
            &[
                "Application",
                "sites",
                "safe",
                "unsafe",
                "unknown",
                "v1 unk",
                "upgraded",
                "reverify",
                "detours",
            ],
        );
        let (mut total_sites, mut total_safe) = (0usize, 0usize);
        for r in &self.rows {
            total_sites += r.sites;
            total_safe += r.safe;
            table.row([
                Cell::from(r.name),
                Cell::Num(r.sites as f64, 0),
                Cell::Num(r.safe as f64, 0),
                Cell::Num(r.unsafe_ as f64, 0),
                Cell::Num(r.unknown as f64, 0),
                Cell::Num(r.v1_unknown as f64, 0),
                Cell::Num(r.upgraded as f64, 0),
                Cell::from(if r.reverify_ok { "ok" } else { "FAIL" }),
                Cell::Num(r.detours as f64, 0),
            ]);
        }
        let mut out = String::new();
        table.render_into(&mut out);
        let _ = write!(
            out,
            "\n\
             {total_safe}/{total_sites} sites proved Safe. The v1 analyzer left\n\
             {v1_unk} libc `syscall(nr)` shim sites Unknown; interprocedural\n\
             propagation upgraded {upgraded} of them and the offline tool turned\n\
             {recovered} into detour patches. Every offline-rewritten library\n\
             passes post-patch re-verification.\n\
             Pre-flight ablation: {rej} online patches vetoed by the\n\
             verifier across {per_app} syscalls/app — the §4.4 pattern\n\
             matcher never patches a site the analyzer cannot prove.\n\
             Analysis cache: {hits} hits / {misses} misses ({rate:.0}% hit rate)\n\
             across the study and online pre-flight passes.\n",
            v1_unk = self.v1_unknown(),
            upgraded = self.rows.iter().map(|r| r.upgraded).sum::<usize>(),
            recovered = self.rows.iter().map(|r| r.recovered).sum::<u64>(),
            rej = self.total_rejections(),
            per_app = self.syscalls_per_app,
            hits = self.cache_hits(),
            misses = self.cache_misses(),
            rate = self.cache_hit_rate() * 100.0,
        );
        let mut rules: BTreeMap<&str, usize> = BTreeMap::new();
        for f in self.rows.iter().flat_map(|r| &r.lint) {
            *rules.entry(f.rule).or_insert(0) += 1;
        }
        out.push_str("\nLint rule counts:");
        if rules.is_empty() {
            out.push_str(" none");
        }
        for (rule, count) in rules {
            let _ = write!(out, " {rule}\u{d7}{count}");
        }
        out.push('\n');
        for r in self.rows.iter().filter(|r| !r.lint.is_empty()) {
            let _ = writeln!(out, "\n--- {} ---", r.name);
            out.push_str(&render_text(&r.lint));
        }
        out
    }
}

/// One application cell: coverage, offline patch + re-verify, ablation.
fn cell(profile: &AppProfile, syscalls: u64, rng: Rng) -> ProfileRow {
    let image = profile.library();
    let mut cache = AnalysisCache::new();

    // 1. Pre-patch verdicts + analysis wall time (populates the cache).
    //    The v1 baseline (upgrades off) runs uncached so the study and
    //    offline pre-flight keep sharing one cache entry.
    let start = Instant::now();
    let analysis = cache.analyze(&Verifier::new(), &image);
    let micros = start.elapsed().as_secs_f64() * 1e6;
    let (safe, unsafe_, unknown) = analysis.report().tally();
    let upgraded = summarize(analysis.report()).upgraded;
    let lint = lint_report(analysis.report());
    let (_, _, v1_unknown) = Verifier::with_config(VerifierConfig {
        interprocedural_upgrades: false,
    })
    .analyze(&image)
    .report()
    .tally();

    let shims = profile
        .sites
        .iter()
        .filter(|s| s.style == WrapperStyle::LibcShim)
        .count();

    // 2. Offline patch through the same cache (guaranteed hit), then
    //    re-verify the rewritten image. `interprocedural` turns the
    //    upgraded shim verdicts into detours.
    let (patched, report) = OfflinePatcher::with_config(OfflineConfig {
        interprocedural: true,
    })
    .patch_with_cache(&image, &mut cache)
    .expect("offline patching");
    let shape = reverify(&patched, image.len());

    // 3. Pre-flight ablation: same run, verifier in the loop.
    let verified = run_with_config(
        profile,
        AbomConfig {
            enabled: true,
            nine_byte_phase2: true,
            preflight_verify: true,
        },
        syscalls,
        rng,
    );

    ProfileRow {
        name: profile.name,
        sites: profile.sites.len(),
        safe,
        unsafe_,
        unknown,
        v1_unknown,
        upgraded,
        lint,
        micros,
        reverify_ok: shape.ok(),
        detours: shape.detours.len(),
        detour_patched: report.detour_patched,
        recovered: report.interprocedural_recovered,
        shims,
        rejections: verified.verify_rejected,
        study_cache_hits: cache.hits(),
        study_cache_misses: cache.misses(),
        kernel_cache_hits: verified.verify_cache_hits,
        kernel_cache_misses: verified.verify_cache_misses,
    }
}

/// Runs the study with explicit workload knobs (tests use small ones).
pub fn run_with(runner: &Runner, syscalls_per_app: u64, seed: u64) -> Output {
    let profiles = table1_profiles();
    let rows = runner.run(profiles.len(), |i| {
        cell(
            &profiles[i],
            syscalls_per_app,
            Rng::substream(seed, i as u64),
        )
    });
    Output {
        rows,
        syscalls_per_app,
    }
}

/// Runs the study at the default workload size.
pub fn run(runner: &Runner) -> Output {
    run_with(runner, SYSCALLS_PER_APP, SEED)
}

/// Timed runs per library behind each [`StageProfile`] (the median is
/// reported, so one slow run does not move a row).
pub const PROFILE_RUNS: usize = 15;

/// One application's pipeline profile (the `--profile` flag; see
/// [`stage_profiles`]).
#[derive(Debug, Clone)]
pub struct StageProfile {
    /// Table 1 application name.
    pub name: &'static str,
    /// Instructions in the library's linear sweep.
    pub insts: usize,
    /// Basic blocks in the library's CFG.
    pub blocks: usize,
    /// Abstract-interpretation worklist pops.
    pub pops: u64,
    /// Median wall time of each stage over [`PROFILE_RUNS`] runs, in µs,
    /// indexed by `Stage as usize` — nondeterministic.
    pub stage_micros: [f64; 7],
    /// Median wall time of the whole pipeline, in µs — nondeterministic.
    pub total_micros: f64,
}

/// The median of `xs` (upper median for an even count).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Profiles the verifier pipeline over the Table 1 corpus: for each
/// library, [`PROFILE_RUNS`] runs of `Verifier::analyze_profiled`,
/// reporting the median wall time of every stage plus the deterministic
/// sizes and worklist pops. The µs columns are host noise, so the whole
/// pass stays out of stdout and the findings.
pub fn stage_profiles(runner: &Runner) -> Vec<StageProfile> {
    let profiles = table1_profiles();
    runner.run(profiles.len(), |i| {
        let p = &profiles[i];
        let image = p.library();
        let runs: Vec<_> = (0..PROFILE_RUNS)
            .map(|_| Verifier::new().analyze_profiled(&image))
            .collect();
        let (analysis, first) = &runs[0];
        let nanos = |f: &dyn Fn(&PipelineProfile) -> u64| {
            median(runs.iter().map(|(_, prof)| f(prof) as f64 / 1e3).collect())
        };
        StageProfile {
            name: p.name,
            insts: analysis.disasm.insts().len(),
            blocks: analysis.cfg.blocks().len(),
            pops: first.pops,
            stage_micros: Stage::ALL.map(|stage| nanos(&|prof| prof.nanos(stage))),
            total_micros: nanos(&PipelineProfile::total_nanos),
        }
    })
}

/// Renders the `--profile` table (the binary writes it to stderr).
pub fn render_stage_profiles(rows: &[StageProfile]) -> String {
    let mut headers = vec!["Application", "insts", "blocks", "pops"];
    headers.extend(Stage::ALL.map(Stage::name));
    headers.push("total");
    let mut table = Table::new(
        "Verifier pipeline profile: median µs per stage and library",
        &headers,
    );
    for r in rows {
        let mut cells = vec![
            Cell::from(r.name),
            Cell::Num(r.insts as f64, 0),
            Cell::Num(r.blocks as f64, 0),
            Cell::Num(r.pops as f64, 0),
        ];
        cells.extend(r.stage_micros.map(|us| Cell::Num(us, 1)));
        cells.push(Cell::Num(r.total_micros, 1));
        table.row(cells);
    }
    let mut out = String::new();
    table.render_into(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_fully_covered_and_gates_pass() {
        let out = run_with(&Runner::new(1), 300, SEED);
        assert_eq!(out.rows.len(), 12);
        assert_eq!(out.v2_unknown(), 0);
        let upgraded: usize = out.rows.iter().map(|r| r.upgraded).sum();
        assert_eq!(upgraded, 1, "MySQL's libc shim");
        let lint: Vec<_> = out.rows.iter().flat_map(|r| &r.lint).collect();
        assert_eq!(lint.len(), 1, "{lint:?}");
        assert_eq!(lint[0].rule, "XV000");
        assert!(out.findings().iter().all(|f| f.in_band));
    }

    #[test]
    fn render_mentions_the_upgrade_note() {
        let text = run_with(&Runner::new(1), 300, SEED).render();
        assert!(text.contains("--- MySQL ---"), "{text}");
        assert!(text.contains("note[XV000]"), "{text}");
    }
}
