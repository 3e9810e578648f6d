//! Chaos study — throughput degradation and recovery latency under
//! deterministic fault injection (see the `chaos_study` binary).
//!
//! Sweeps fault rate × platform over the closed-loop chaos world
//! (`xcontainers::faults::chaos`). Each grid cell gets its own
//! [`FaultPlan`] derived from `(SEED, cell index)`, so the whole sweep
//! is byte-identical at any `--jobs` value, and every cell's two
//! conservation ledgers are asserted after the run: faults may slow
//! work down or route it onto fallback paths, but never lose it.

use std::fmt::Write as _;

use xcontainers::prelude::*;

use super::HarnessOutput;
use crate::runner::Runner;
use crate::Finding;

/// Root seed of the sweep (the repo-wide experiment seed).
const SEED: u64 = 2019;
/// Fault-rate axis of the full sweep (`scaled` multipliers).
const RATES: [f64; 4] = [0.0, 0.002, 0.01, 0.05];
/// Fault-rate axis under `--quick`.
const QUICK_RATES: [f64; 2] = [0.0, 0.01];
/// ABOM warm-up corpus (syscall numbers) on ABOM platforms.
const CORPUS_SITES: u64 = 128;
/// Syscalls a modeled request performs.
const SYSCALLS_PER_REQUEST: u64 = 64;
/// Application compute per request, on top of kernel crossings.
const APP_COMPUTE: Nanos = Nanos::from_micros(20);

/// The platforms the sweep compares (all Meltdown-patched, EC2), with
/// distinct labels — `Platform::name()` does not distinguish the
/// ABOM-disabled X-Container variant.
fn platforms() -> Vec<(&'static str, Platform)> {
    vec![
        (
            "X-Container",
            Platform::x_container(CloudEnv::AmazonEc2, true),
        ),
        (
            "X-Container/no-ABOM",
            Platform::x_container_no_abom(CloudEnv::AmazonEc2, true),
        ),
        (
            "Xen-Container",
            Platform::xen_container(CloudEnv::AmazonEc2, true),
        ),
    ]
}

/// Chaos-world parameters for one platform: service time composed from
/// the platform's syscall costs, restart priced at its real spawn time.
fn params_for(platform: &Platform, costs: &CostModel, duration: Nanos) -> ChaosParams {
    let syscall = platform.syscall_cost(costs);
    let trapped = platform.syscall_cost_trapped(costs);
    ChaosParams {
        connections: 32,
        parallelism: 4,
        duration,
        rtt: Nanos::from_millis(1),
        base_service: APP_COMPUTE
            + syscall.saturating_mul(SYSCALLS_PER_REQUEST)
            + platform.event_entry_cost(costs),
        service_jitter: Nanos::from_micros(5),
        corpus_sites: if platform.abom_enabled() {
            CORPUS_SITES
        } else {
            0
        },
        syscalls_per_request: SYSCALLS_PER_REQUEST,
        trap_extra: trapped.saturating_sub(syscall),
        payload_bytes: 4096,
        delay_max: Nanos::from_micros(100),
        resend_timeout: Nanos::from_millis(2),
        retry: RetryPolicy::event_default(),
        watchdog_period: Nanos::from_millis(10),
        watchdog_timeout: Nanos::from_millis(20),
        restart_cost: Container::new("chaos-server", platform.clone()).spawn_time(),
    }
}

/// Lowercases a platform label into a findings-metric slug.
fn metric_slug(label: &str) -> String {
    label.to_lowercase().replace([' ', '-', '/'], "_")
}

/// One grid cell's inputs and outputs.
struct CellOutcome {
    platform: usize,
    label: &'static str,
    rate: f64,
    result: ChaosResult,
}

/// The sweep's cell grid (fault rate × platform): geometry and the cell
/// function that [`run_with`] runs.
pub struct Grid {
    rates: Vec<f64>,
    duration: Nanos,
    costs: CostModel,
    platforms: Vec<(&'static str, Platform)>,
}

impl Grid {
    /// Builds the grid for one mode (`rate_override` pins the fault
    /// axis to `[0, rate]`, mirroring the `--fault-rate` flag).
    pub fn new(quick: bool, rate_override: Option<f64>) -> Self {
        let rates: Vec<f64> = match rate_override {
            Some(r) => vec![0.0, r],
            None if quick => QUICK_RATES.to_vec(),
            None => RATES.to_vec(),
        };
        let duration = if quick {
            Nanos::from_millis(1000)
        } else {
            Nanos::from_secs(4)
        };
        Grid {
            rates,
            duration,
            costs: CostModel::skylake_cloud(),
            platforms: platforms(),
        }
    }

    /// Cells in the platform-major grid.
    pub fn cells(&self) -> usize {
        self.platforms.len() * self.rates.len()
    }

    /// Executes cell `i`: one (platform, fault-rate) pair under its own
    /// deterministic fault plan.
    fn cell(&self, i: usize) -> CellOutcome {
        let p = i / self.rates.len();
        let rate = self.rates[i % self.rates.len()];
        let (label, platform) = &self.platforms[p];
        let params = params_for(platform, &self.costs, self.duration);
        let plan = FaultPlan::for_cell(SEED, i as u64, FaultRates::scaled(rate));
        let jitter_seed = Rng::substream(SEED, 0x1000 + i as u64).next_u64();
        CellOutcome {
            platform: p,
            label,
            rate,
            result: run_chaos(params, plan, jitter_seed),
        }
    }
}

/// Runs the sweep. `quick` shrinks the grid and the simulated duration
/// (the check-script smoke gate); `rate_override` pins the fault axis
/// to `[0, rate]` (the `--fault-rate` flag).
pub fn run_with(runner: &Runner, quick: bool, rate_override: Option<f64>) -> HarnessOutput {
    let grid = Grid::new(quick, rate_override);
    let outcomes: Vec<CellOutcome> = runner.run(grid.cells(), |i| grid.cell(i));
    render_cells(&grid.rates, &outcomes)
}

/// Renders the sweep table, shape notes and findings from the
/// index-ordered cell outcomes.
fn render_cells(rates: &[f64], outcomes: &[CellOutcome]) -> HarnessOutput {
    let mut findings = Vec::new();
    let mut table = Table::new(
        "Chaos study: throughput degradation and recovery under injected faults",
        &[
            "platform",
            "fault rate",
            "throughput (req/s)",
            "vs healthy",
            "abandoned",
            "resends",
            "restarts",
            "recovery p99",
            "ledgers",
        ],
    );
    let mut violations = 0u64;
    for outcome in outcomes {
        let r = &outcome.result;
        let conserved = r.check_conservation();
        if conserved.is_err() {
            violations += 1;
        }
        // The platform's own rate-0 row is the degradation baseline.
        let healthy = outcomes
            .iter()
            .find(|o| o.platform == outcome.platform && o.rate == 0.0)
            .map_or(0.0, |o| o.result.throughput_rps());
        let relative = if healthy > 0.0 {
            r.throughput_rps() / healthy
        } else {
            0.0
        };
        let recovery_p99 = Nanos::from_nanos(r.recovery.quantile(0.99));
        table.row([
            Cell::from(outcome.label),
            Cell::Num(outcome.rate, 3),
            Cell::Num(r.throughput_rps(), 0),
            Cell::from(format!("{:.1}%", relative * 100.0)),
            Cell::from(r.abandoned),
            Cell::from(r.resends),
            Cell::from(r.restarts),
            Cell::from(if r.recovery.count() == 0 {
                "-".to_owned()
            } else {
                recovery_p99.to_string()
            }),
            Cell::from(match &conserved {
                Ok(()) => "balanced".to_owned(),
                Err(e) => format!("VIOLATED: {e}"),
            }),
        ]);
    }

    findings.push(Finding {
        experiment: "chaos",
        metric: "conservation_violations".to_owned(),
        paper: "components fail safely (§4.1, §4.4)".to_owned(),
        measured: violations as f64,
        in_band: violations == 0,
    });
    for outcome in outcomes {
        if outcome.rate == 0.0 {
            let r = &outcome.result;
            let clean = r.abandoned == 0 && r.restarts == 0 && r.fault_stats.injected_total() == 0;
            findings.push(Finding {
                experiment: "chaos",
                metric: format!("healthy_baseline_{}", metric_slug(outcome.label)),
                paper: "no faults => no degradation".to_owned(),
                measured: r.abandoned as f64 + r.restarts as f64,
                in_band: clean,
            });
        }
    }
    let top_rate = rates.iter().copied().fold(0.0f64, f64::max);
    if top_rate > 0.0 {
        for outcome in outcomes.iter().filter(|o| o.rate == top_rate) {
            let healthy = outcomes
                .iter()
                .find(|o| o.platform == outcome.platform && o.rate == 0.0)
                .map_or(0.0, |o| o.result.throughput_rps());
            let relative = if healthy > 0.0 {
                outcome.result.throughput_rps() / healthy
            } else {
                0.0
            };
            findings.push(Finding {
                experiment: "chaos",
                metric: format!("degraded_throughput_{}", metric_slug(outcome.label)),
                paper: "graceful degradation, not collapse".to_owned(),
                measured: relative,
                in_band: (0.0..1.0).contains(&relative)
                    && outcome.result.completed + outcome.result.abandoned > 0,
            });
        }
    }

    let mut text = String::new();
    table.render_into(&mut text);
    text.push('\n');
    let total_injected: u64 = outcomes
        .iter()
        .map(|o| o.result.fault_stats.injected_total())
        .sum();
    let total_recoveries: u64 = outcomes.iter().map(|o| o.result.recovery.count()).sum();
    let _ = writeln!(
        text,
        "Injected {total_injected} faults across {} cells; {total_recoveries} watchdog \
         recoveries; {violations} conservation violations.",
        outcomes.len()
    );
    let _ = writeln!(
        text,
        "Every request is completed, abandoned after bounded retries, or still in \
         flight — never lost; demoted ABOM sites fall back to the syscall trap (§4.4)."
    );

    HarnessOutput { text, findings }
}

/// Full sweep with default axes.
pub fn run(runner: &Runner) -> HarnessOutput {
    run_with(runner, false, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_is_clean_and_jobs_invariant() {
        let serial = run_with(&Runner::new(1), true, None);
        let parallel = run_with(&Runner::new(4), true, None);
        assert_eq!(serial.text, parallel.text);
        assert_eq!(
            crate::findings_json(&serial.findings),
            crate::findings_json(&parallel.findings)
        );
        assert!(serial.text.contains("balanced"));
        assert!(!serial.text.contains("VIOLATED"));
        let conservation = serial
            .findings
            .iter()
            .find(|f| f.metric == "conservation_violations")
            .expect("conservation finding present");
        assert!(conservation.in_band);
        assert_eq!(conservation.measured, 0.0);
        for f in serial
            .findings
            .iter()
            .filter(|f| f.metric.starts_with("healthy_"))
        {
            assert!(f.in_band, "{} out of band", f.metric);
        }
    }

    #[test]
    fn pinned_rate_restricts_the_axis() {
        let out = run_with(&Runner::new(1), true, Some(0.05));
        assert!(out.text.contains("0.050"));
        assert!(!out.text.contains("0.002"));
    }
}
