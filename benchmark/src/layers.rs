//! Metric definitions and the per-layer metrics of a traced run.
//!
//! End-to-end metrics are measured with tracing off and carry a bound:
//! the share of the parent's median by which they may worsen before a
//! change counts as a regression. Per-layer metrics come from the traced
//! run's spans plus the iteration's simulated counters and carry no
//! bound. `BENCHMARK.json` lists the same names, units and directions
//! (a test keeps the two in step).

use crate::summary::Better;
use crate::summary::Better::{Higher, Lower};
use crate::trace::{Profile, Span};
use crate::workloads::Outcome;

/// A metric's name, unit and direction, plus its regression bound for
/// end-to-end metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Allowed worsening as a share of the parent's median.
    pub bound: f64,
}

const fn def(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// Iteration time ÷ probe time: per timing child the median over its
/// rounds, then the median over the children. Host drift slows probe and
/// workload alike, but not by exactly the same share: with every round
/// in one process its interquartile range over 10 runs reached 13% of
/// the median on a busy shared 2-core host, so the bound is 20%; with
/// the median over children it stays under 2.5% on a quiet one.
pub const ITER_REL: MetricDef = def("iter_rel_p50", "ratio", Better::Lower, 0.20);
/// The raw iteration time, as the same median of medians. It follows the
/// host: on a busy shared host its interquartile range over 10 runs
/// reached a third of the median, so only `--compare` judges it.
pub const ITER_MS: MetricDef = def("iter_ms_p50", "ms", Better::Lower, 0.20);
/// Set-up time in reference seconds: the CPU time from `main()` to the
/// end of a timing child's warm-up iteration, scaled by the reference
/// probe pass over that child's median probe pass (so a host running at
/// half speed does not double it), median over the children. The widest
/// bound, since one cold iteration is the noisiest measurement.
pub const SETUP_S: MetricDef = def("setup_s", "s", Better::Lower, 0.25);
/// Median peak resident set (less file-backed pages) of the timing
/// children at the end of their rounds.
pub const PEAK_RSS: MetricDef = def("peak_rss_mib", "MiB", Better::Lower, 0.10);
/// Failed iterations ÷ attempted iterations.
pub const OPS_FAILED: MetricDef = def("ops_failed_frac", "ratio", Better::Lower, 0.0);

/// The end-to-end metrics `BENCHMARK.json` gates. They never read 0 and
/// their medians move little between seeds or with the host's speed.
pub const END_TO_END: [MetricDef; 2] = [ITER_REL, SETUP_S];

/// End-to-end metrics the result file records and `--compare` judges
/// that `BENCHMARK.json` leaves out: raw iteration time follows the
/// host's speed, `chaos_faults`' peak heap follows its event backlog and
/// so moves by up to a quarter between seeds, and `ops_failed_frac` reads
/// 0 in every healthy run (the result line's `failed` count carries it).
pub const RECORDED: [MetricDef; 3] = [ITER_MS, PEAK_RSS, OPS_FAILED];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    def(name, unit, better, f64::NAN)
}

/// Every per-layer metric, by layer. Layers a workload does not reach
/// read 0 on it.
pub const PER_LAYER: [MetricDef; 40] = [
    layer("runner.cells", "count", Lower),
    layer("runner.self_ms", "ms", Lower),
    layer("costs.derive_calls", "count", Lower),
    layer("costs.self_ms", "ms", Lower),
    layer("cluster.self_ms", "ms", Lower),
    layer("cluster.sim_requests", "count", Higher),
    layer("cluster.dropped", "count", Lower),
    layer("cluster.host_ns_per_request", "ns/request", Lower),
    layer("cluster.docker.host_ns_per_request", "ns/request", Lower),
    layer("cluster.gvisor.host_ns_per_request", "ns/request", Lower),
    layer("http.calls", "count", Lower),
    layer("http.cache_hit_ratio", "ratio", Higher),
    layer("http.miss_self_ms", "ms", Lower),
    layer("http.sim_requests", "count", Higher),
    layer("http.host_ns_per_request", "ns/request", Lower),
    layer("chaos.self_ms", "ms", Lower),
    layer("chaos.sim_requests", "count", Higher),
    layer("chaos.host_ns_per_request", "ns/request", Lower),
    layer("chaos.rate0.host_ns_per_request", "ns/request", Lower),
    layer("chaos.rate05.host_ns_per_request", "ns/request", Lower),
    layer("chaos.faults_injected", "count", Lower),
    layer("chaos.resends", "count", Lower),
    layer("chaos.hypercall_retries", "count", Lower),
    layer("faults.plan_self_ms", "ms", Lower),
    layer("stats.self_ms", "ms", Lower),
    layer("report.self_ms", "ms", Lower),
    layer("verify.analyze_self_ms", "ms", Lower),
    layer("verify.v1_analyze_self_ms", "ms", Lower),
    layer("verify.reverify_self_ms", "ms", Lower),
    layer("verify.cache_hit_ratio", "ratio", Higher),
    layer("verify.sites", "count", Higher),
    layer("abom.offline_patch_self_ms", "ms", Lower),
    layer("abom.preflight_self_ms", "ms", Lower),
    layer("abom.syscalls", "count", Higher),
    layer("abom.host_ns_per_syscall", "ns/syscall", Lower),
    layer("bench.check_self_ms", "ms", Lower),
    layer("host.probe_ms_p50", "ms", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("runner.speedup_nproc", "x", Higher),
    layer("trace.iter_ms_p50", "ms", Lower),
];

/// Measurements of the benchmark itself that feed the per-layer list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunFacts {
    /// Median probe pass over the traced run.
    pub probe_ms_p50: f64,
    /// Median slowdown of a traced iteration over its paired untraced
    /// one, in percent.
    pub trace_overhead_pct: f64,
    /// Iteration time at `--jobs 1` ÷ at `--jobs nproc`.
    pub speedup_nproc: f64,
    /// Median traced iteration wall time.
    pub traced_iter_ms_p50: f64,
}

/// The per-layer metrics, in [`PER_LAYER`] order, from a traced profile
/// and the last traced iteration's counters.
pub fn per_layer(profile: &Profile, outcome: &Outcome, facts: RunFacts) -> Vec<(MetricDef, f64)> {
    let iters = f64::from(profile.iterations());
    let ms = |ns: u64| ns as f64 / 1e6 / iters;
    let layer_ns = |l: &str| profile.self_ns_where(|s| s.layer == l);
    let call_ns = |l: &str, n: &str| profile.self_ns_where(|s| s.layer == l && s.name == n);
    let tag_ns = |l: &str, n: &str, t: &str| {
        profile.self_ns_where(|s: &Span| s.layer == l && s.name == n && s.tag == t)
    };
    let calls =
        |l: &str, n: &str| profile.count_where(|s| s.layer == l && s.name == n) as f64 / iters;
    // Host nanoseconds per unit of simulated work, per iteration.
    let per = |ns: u64, work: f64| {
        if work > 0.0 {
            ns as f64 / iters / work
        } else {
            0.0
        }
    };
    let ratio = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let c = |name: &str| outcome.count(name);

    let values: [f64; PER_LAYER.len()] = [
        c("runner.cells"),
        ms(layer_ns("runner")),
        calls("costs", "derive"),
        ms(layer_ns("costs")),
        ms(layer_ns("cluster")),
        c("cluster.sim_requests"),
        c("cluster.dropped"),
        per(layer_ns("cluster"), c("cluster.sim_requests")),
        per(
            tag_ns("cluster", "run_cluster_range", "Docker"),
            c("cluster.docker.sim_requests"),
        ),
        per(
            tag_ns("cluster", "run_cluster_range", "gVisor"),
            c("cluster.gvisor.sim_requests"),
        ),
        c("http.calls"),
        ratio(c("http.hits"), c("http.calls")),
        ms(tag_ns("http", "get_or_run", "miss")),
        c("http.sim_requests"),
        per(tag_ns("http", "get_or_run", "miss"), c("http.sim_requests")),
        ms(layer_ns("chaos")),
        c("chaos.sim_requests"),
        per(call_ns("chaos", "run_chaos"), c("chaos.sim_requests")),
        per(
            tag_ns("chaos", "run_chaos", "rate0"),
            c("chaos.rate0.sim_requests"),
        ),
        per(
            tag_ns("chaos", "run_chaos", "rate0.05"),
            c("chaos.rate05.sim_requests"),
        ),
        c("chaos.faults_injected"),
        c("chaos.resends"),
        c("chaos.hypercall_retries"),
        ms(layer_ns("faults")),
        ms(layer_ns("stats")),
        ms(layer_ns("report")),
        ms(call_ns("verify", "analyze")),
        ms(call_ns("verify", "v1_analyze")),
        ms(call_ns("verify", "reverify")),
        ratio(
            c("verify.cache_hits"),
            c("verify.cache_hits") + c("verify.cache_misses"),
        ),
        c("verify.sites"),
        ms(call_ns("abom", "offline_patch")),
        ms(call_ns("abom", "preflight")),
        c("abom.syscalls"),
        per(call_ns("abom", "preflight"), c("abom.syscalls")),
        ms(call_ns("bench", "check")),
        facts.probe_ms_p50,
        facts.trace_overhead_pct,
        facts.speedup_nproc,
        facts.traced_iter_ms_p50,
    ];
    PER_LAYER.into_iter().zip(values).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcontainers::prelude::Json;

    fn metric_list(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_owned(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_owned(),
                    m.get("better").and_then(Json::as_str).unwrap().to_owned(),
                    m.get("bound").and_then(Json::as_num),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_these_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|d| {
                (
                    d.name.to_owned(),
                    d.unit.to_owned(),
                    d.better.as_str().to_owned(),
                    Some(d.bound),
                )
            })
            .collect();
        assert_eq!(metric_list(&doc, "end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|d| {
                (
                    d.name.to_owned(),
                    d.unit.to_owned(),
                    d.better.as_str().to_owned(),
                    None,
                )
            })
            .collect();
        assert_eq!(metric_list(&doc, "per_layer"), layers);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
