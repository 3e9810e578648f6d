//! Figure 3 — macrobenchmark throughput and latency, normalized to
//! patched Docker, on both clouds (see the `fig3_macro` binary).

use xcontainers::prelude::*;
use xcontainers::workloads::apps::figure3_profiles;

use super::HarnessOutput;
use crate::runner::Runner;
use crate::{clouds, platform_matrix, Finding};

const CONNECTIONS: u32 = 50;
const DURATION_MS: u64 = 300;
const SEED: u64 = 7;

fn measure(
    platform: &Platform,
    profile: &RequestProfile,
    costs: &CostModel,
    cache: &ClosedLoopCache,
) -> (f64, f64) {
    // Default images: nginx:1.13 runs one worker, memcached:1.5.7 four
    // threads, redis:3.2.11 a single event loop.
    let workers = match profile.name {
        "memcached" => 4,
        _ => 1,
    };
    let server = ServerModel {
        platform: platform.clone(),
        profile: profile.clone(),
        workers,
        cores: 4,
    };
    let r = cache.get_or_run(
        &PlatformCosts::derive(&server, costs),
        CONNECTIONS,
        Nanos::from_millis(DURATION_MS),
        SEED,
    );
    (r.throughput_rps, r.latency.mean() / 1_000.0)
}

/// One (cloud, profile) cell: a whole normalized table plus its
/// findings and patched X-Container's relative throughput, against a
/// shared [`ClosedLoopCache`].
///
/// The cache is keyed on the derived [`PlatformCosts`] table, so every
/// coincidence in derived parameters — the normalization baseline vs
/// the matrix's patched-Docker entry, the patched/unpatched pairs whose
/// guest kernel ignores the host patch state (X-Container,
/// Clear Container), and any collision across cells or repeated grid
/// runs — costs one simulation total.
fn cell(
    cloud: CloudEnv,
    profile: &RequestProfile,
    costs: &CostModel,
    cache: &ClosedLoopCache,
) -> (String, Vec<Finding>, f64) {
    let mut findings = Vec::new();
    let mut table = Table::new(
        &format!("Figure 3: {} — {}", profile.name, cloud.name()),
        &["configuration", "rel. throughput", "rel. latency"],
    );
    let (baseline, matrix) = platform_matrix(cloud);
    let (base_tput, base_lat) = measure(&baseline, profile, costs, cache);
    let cloud_name = cloud.name().to_lowercase();
    let memcached = profile.name == "memcached";
    let mut x_gain = f64::NAN;
    for platform in matrix {
        let (tput, lat) = measure(&platform, profile, costs, cache);
        let (rel_tput, rel_lat) = (tput / base_tput, lat / base_lat);
        table.row([
            Cell::from(platform.name()),
            Cell::Num(rel_tput, 2),
            Cell::Num(rel_lat, 2),
        ]);
        if !platform.is_patched() {
            continue;
        }
        if platform.kind() == PlatformKind::XContainer {
            let (paper, band): (&str, (f64, f64)) = match profile.name {
                "nginx-static" => ("1.21-1.50x Docker", (1.0, 1.9)),
                "memcached" => ("1.34-2.08x Docker", (1.2, 2.6)),
                _ => ("≈1x Docker (Redis)", (0.8, 1.5)),
            };
            x_gain = rel_tput;
            findings.push(Finding {
                experiment: "fig3",
                metric: format!("x_{}_{cloud_name}_throughput", profile.name),
                paper: paper.to_owned(),
                measured: rel_tput,
                in_band: (band.0..band.1).contains(&rel_tput),
            });
            if memcached {
                findings.push(Finding {
                    experiment: "fig3",
                    metric: format!("x_memcached_{cloud_name}_latency"),
                    paper: "below Docker".to_owned(),
                    measured: rel_lat,
                    in_band: rel_lat < 1.0,
                });
            }
        }
        if platform.kind() == PlatformKind::Gvisor && memcached {
            findings.push(Finding {
                experiment: "fig3",
                metric: format!("gvisor_memcached_{cloud_name}_latency"),
                paper: "multiples of Docker (2.7-10x annotations)".to_owned(),
                measured: rel_lat,
                in_band: (2.0..40.0).contains(&rel_lat),
            });
        }
    }
    let mut text = String::new();
    table.render_into(&mut text);
    text.push('\n');
    (text, findings, x_gain)
}

/// Runs the full cloud × profile grid, one cell per (cloud, profile),
/// every cell sharing `cache`. A cache that outlives one call makes a
/// repeated grid almost free (`tests/determinism.rs` pins that a warm
/// rerun renders the same bytes).
///
/// Cell text and findings are unaffected by cache state (results are
/// observationally identical to uncached simulation), so output stays
/// byte-identical at every `--jobs` value even though hit/miss totals
/// depend on cell scheduling.
pub fn run_with(runner: &Runner, cache: &ClosedLoopCache) -> HarnessOutput {
    let costs = CostModel::skylake_cloud();
    let profiles = figure3_profiles();
    let grid: Vec<(CloudEnv, RequestProfile)> = clouds()
        .into_iter()
        .flat_map(|cloud| profiles.iter().map(move |p| (cloud, p.clone())))
        .collect();
    let cells = runner.run(grid.len(), |i| {
        let (cloud, profile) = &grid[i];
        cell(*cloud, profile, &costs, cache)
    });
    let mut out = HarnessOutput::default();
    let mut gains = Vec::with_capacity(cells.len());
    for (text, findings, gain) in cells {
        out.text.push_str(&text);
        out.findings.extend(findings);
        gains.push(gain);
    }
    // §5.3's ordering: memcached gains most, then NGINX, then Redis.
    for (cloud, gains) in clouds().into_iter().zip(gains.chunks(profiles.len())) {
        let gain = |name: &str| {
            let i = profiles.iter().position(|p| p.name == name);
            gains[i.expect("figure 3 profile")]
        };
        let order =
            (gain("memcached") / gain("nginx-static")).min(gain("nginx-static") / gain("redis"));
        out.findings.push(Finding {
            experiment: "fig3",
            metric: format!("x_gain_order_{}", cloud.name().to_lowercase()),
            paper: "memcached > NGINX > Redis".to_owned(),
            measured: order,
            in_band: order > 1.0,
        });
    }
    out.text.push_str(
        "Shape (§5.3): X-Containers lead Docker most on memcached (syscall-\n\
         dense ops), moderately on NGINX, and only match it on Redis (user-\n\
         space compute dominates). gVisor and Clear Containers trail; the\n\
         patch penalizes Docker and Xen-Containers only.\n",
    );
    out
}

/// [`run_with`] against a fresh cache — the entry point of `fig3_macro`,
/// `all_experiments` and the determinism suite.
pub fn run(runner: &Runner) -> HarnessOutput {
    let cache = ClosedLoopCache::new();
    run_with(runner, &cache)
}
