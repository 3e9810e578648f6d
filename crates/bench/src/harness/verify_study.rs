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
//! Each application is one runner cell carrying its own
//! [`AnalysisCache`]: the coverage pass populates it and the offline
//! patcher's pre-flight re-reads it, so every profile contributes one
//! guaranteed cache hit. The per-row analysis wall time is the only
//! nondeterministic value; it stays out of [`Output::render`] and the
//! findings (the binary prints it to stderr), so runs compare
//! byte-for-byte.

use std::fmt::Write as _;
use std::time::Instant;

use xcontainers::abom::binaries::{invoke_with, WrapperStyle};
use xcontainers::abom::handler::XContainerKernel;
use xcontainers::abom::offline::{OfflineConfig, OfflinePatcher};
use xcontainers::abom::stats::AbomStats;
use xcontainers::prelude::*;
use xcontainers::verify::{
    disassemble_image, reverify, summarize, AbsInt, CallGraph, Cfg, Summaries, Verifier,
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
        out
    }
}

/// One application cell: coverage, offline patch + re-verify, ablation.
fn cell(profile: &AppProfile, syscalls: u64, rng: Rng) -> ProfileRow {
    let image = profile.library();
    let mut cache = AnalysisCache::new();

    // 1. Pre-patch verdicts + analysis wall time (populates the cache).
    //    The v1 baseline (upgrades off) runs uncached so the study and
    //    offline pre-flight keep sharing one fingerprint.
    let start = Instant::now();
    let analysis = cache.analyze(&Verifier::new(), &image);
    let micros = start.elapsed().as_secs_f64() * 1e6;
    let (safe, unsafe_, unknown) = analysis.report().tally();
    let upgraded = summarize(analysis.report()).upgraded;
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
        ..OfflineConfig::default()
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

/// One application's abstract-interpretation worklist profile (the
/// `--profile` flag; see [`worklist_profiles`]).
#[derive(Debug, Clone)]
pub struct WorklistProfile {
    /// Table 1 application name.
    pub name: &'static str,
    /// Basic blocks in the library's CFG.
    pub blocks: usize,
    /// Worklist pops (fixpoint iterations).
    pub pops: u64,
    /// Edge-state merges attempted.
    pub merges: u64,
    /// Merges that moved the lattice and re-queued a block.
    pub merges_changed: u64,
    /// `AbsState`s physically copied; `cloned + shared` is what the
    /// pre-copy-on-write driver cloned.
    pub states_cloned: u64,
    /// `AbsState`s adopted by arena id instead of cloned.
    pub states_shared: u64,
    /// Fixpoint-phase wall time — nondeterministic.
    pub fixpoint_micros: f64,
    /// Materialisation-phase wall time — nondeterministic.
    pub materialize_micros: f64,
}

/// Profiles the abstract-interpretation fixpoint over the Table 1
/// corpus: one `AbsInt::analyze_profiled` run per library, reporting
/// worklist traffic and phase wall times. The counters are a pure
/// function of each image; the µs columns are host noise, so the whole
/// pass stays out of the findings.
pub fn worklist_profiles(runner: &Runner) -> Vec<WorklistProfile> {
    let profiles = table1_profiles();
    runner.run(profiles.len(), |i| {
        let p = &profiles[i];
        let image = p.library();
        let d = disassemble_image(&image);
        let cfg = Cfg::build(&d);
        let cg = CallGraph::build(&d, &cfg);
        let summaries = Summaries::build(&d, &cfg, &cg);
        let (_, prof) = AbsInt::analyze_profiled(&d, &cfg, &cg, &summaries);
        WorklistProfile {
            name: p.name,
            blocks: cfg.blocks.len(),
            pops: prof.pops,
            merges: prof.merges,
            merges_changed: prof.merges_changed,
            states_cloned: prof.states_cloned,
            states_shared: prof.states_shared,
            fixpoint_micros: prof.fixpoint_nanos as f64 / 1e3,
            materialize_micros: prof.materialize_nanos as f64 / 1e3,
        }
    })
}

/// Renders the `--profile` table appended after the study output.
pub fn render_worklist_profiles(rows: &[WorklistProfile]) -> String {
    let mut table = Table::new(
        "Worklist profile: abstract-interpretation fixpoint per library",
        &[
            "Application",
            "blocks",
            "pops",
            "merges",
            "changed",
            "cloned",
            "shared",
            "fixpoint µs",
            "materialize µs",
        ],
    );
    for r in rows {
        table.row([
            Cell::from(r.name),
            Cell::Num(r.blocks as f64, 0),
            Cell::Num(r.pops as f64, 0),
            Cell::Num(r.merges as f64, 0),
            Cell::Num(r.merges_changed as f64, 0),
            Cell::Num(r.states_cloned as f64, 0),
            Cell::Num(r.states_shared as f64, 0),
            Cell::Num(r.fixpoint_micros, 1),
            Cell::Num(r.materialize_micros, 1),
        ]);
    }
    let mut out = String::new();
    table.render_into(&mut out);
    out
}
