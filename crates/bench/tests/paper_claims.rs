//! Acceptance suite: the paper's headline claims, one test per claim.
//! Each test runs the harness that draws the claim's figure and requires
//! every finding that carries the claim to be present exactly once and
//! in band. The bands live in the harnesses and nowhere else; this file
//! only names which findings make up each claim, so a broken claim fails
//! under its own name. `tests/golden.rs` checks every finding of every
//! binary the same way.

use xc_bench::harness::{fig3, fig4, fig5, fig6, fig8, fig9, table1, HarnessOutput};
use xc_bench::runner::Runner;
use xcontainers::workloads::table1::table1_profiles;

/// Requires each of `metrics` to appear exactly once in `out` and to be
/// inside its acceptance band.
fn assert_claims<S: AsRef<str>>(out: &HarnessOutput, metrics: impl IntoIterator<Item = S>) {
    for metric in metrics {
        let metric = metric.as_ref();
        let found: Vec<_> = out.findings.iter().filter(|f| f.metric == metric).collect();
        assert_eq!(found.len(), 1, "finding {metric} must appear exactly once");
        let f = found[0];
        assert!(
            f.in_band,
            "{}/{}: measured {} is outside the band for the paper's {}",
            f.experiment, f.metric, f.measured, f.paper
        );
    }
}

/// Each `{cloud}` pattern spelled out for both public clouds.
fn on_both_clouds(patterns: &[&str]) -> Vec<String> {
    ["amazon", "google"]
        .iter()
        .flat_map(|cloud| patterns.iter().map(move |p| p.replace("{cloud}", cloud)))
        .collect()
}

/// Abstract: "X-Containers have up to 27× higher raw system call
/// throughput compared to Docker containers running in the cloud."
#[test]
fn claim_syscall_throughput_27x() {
    assert_claims(&fig4::run(), on_both_clouds(&["x_vs_docker_{cloud}"]));
}

/// Table 1: every application row within 2 percentage points, measured
/// through the byte-level ABOM patcher.
#[test]
fn claim_table1_rows() {
    let rows = table1_profiles()
        .into_iter()
        .map(|p| format!("{}_reduction", p.name));
    assert_claims(&table1::run(), rows);
}

/// §5.2: "using our offline patching tool, two locations in the
/// libpthread library can be patched, reducing system call invocations
/// by 92.2%" (MySQL).
#[test]
fn claim_mysql_offline_recovery() {
    assert_claims(
        &table1::run(),
        ["MySQL_reduction", "MySQL_manual_reduction"],
    );
}

/// §5.3: "X-Containers improved throughput of Memcached from 134% to
/// 208% compared to native Docker", NGINX 21–50%, Redis comparable.
#[test]
fn claim_macrobenchmark_ordering() {
    assert_claims(
        &fig3::run(&Runner::new(1)),
        on_both_clouds(&[
            "x_memcached_{cloud}_throughput",
            "x_nginx-static_{cloud}_throughput",
            "x_redis_{cloud}_throughput",
            "x_gain_order_{cloud}",
        ]),
    );
}

/// Figure 3b: relative latency mirrors throughput — X-Containers serve
/// with lower latency than patched Docker, and gVisor's latencies blow
/// up by multiples (the paper's 2.7–10× annotations).
#[test]
fn claim_fig3b_latency_ordering() {
    assert_claims(
        &fig3::run(&Runner::new(1)),
        on_both_clouds(&[
            "x_memcached_{cloud}_latency",
            "gvisor_memcached_{cloud}_latency",
        ]),
    );
}

/// Figure 4's concurrent panels: platforms without multicore support
/// (gVisor) gain nothing from running four copies.
#[test]
fn claim_concurrent_panel_gvisor_flat() {
    assert_claims(
        &fig4::run(),
        on_both_clouds(&[
            "x_concurrent_scaling_{cloud}",
            "gvisor_concurrent_scaling_{cloud}",
        ]),
    );
}

/// §5.4: X-Containers lose exactly the two microbenchmarks whose page
/// table operations must cross into the X-Kernel.
#[test]
fn claim_microbenchmark_win_loss_pattern() {
    assert_claims(
        &fig5::run(),
        on_both_clouds(&[
            "x_execl_{cloud}",
            "x_filecopy_{cloud}",
            "x_pipe_{cloud}",
            "x_ctxswitch_{cloud}",
            "x_proccreate_{cloud}",
        ]),
    );
}

/// §5.4: "the Meltdown patch does not affect performance of
/// X-Containers and Clear Containers."
#[test]
fn claim_meltdown_immunity() {
    assert_claims(&fig5::run(), on_both_clouds(&["x_patch_effect_{cloud}"]));
    assert_claims(&fig4::run(), ["clear_patch_effect_google"]);
}

/// §5.5 / Figure 6: the LibOS comparison — comparable to Unikernel and
/// over twice Graphene with one worker, over 50% above Graphene with
/// four, and PHP+MySQL over 40% (dedicated) and about 3× (merged) above
/// Unikernel.
#[test]
fn claim_libos_comparison() {
    assert_claims(
        &fig6::run(),
        [
            "nginx1_x_vs_unikernel",
            "nginx1_x_vs_graphene",
            "nginx4_x_vs_graphene",
            "php_x_vs_unikernel_dedicated",
            "php_merged_vs_unikernel_dedicated",
        ],
    );
}

/// §5.6 / Figure 8: Docker leads at low density; X-Containers win by
/// ~18% at N=400; PV/HVM instances cannot reach 400.
#[test]
fn claim_scalability_crossover() {
    assert_claims(
        &fig8::run(),
        [
            "docker_leads_at_50",
            "x_gain_over_docker_at_400",
            "xen_pv_max_containers",
            "xen_hvm_max_containers",
        ],
    );
}

/// §5.7 / Figure 9: 2× from cheap syscalls under HAProxy, +12%-class
/// gain from IPVS NAT, bottleneck shift with direct routing. The three
/// bands' lower bounds order the ladder.
#[test]
fn claim_load_balancing_ladder() {
    assert_claims(
        &fig9::run(),
        [
            "haproxy_x_vs_docker",
            "ipvs_nat_gain_pct",
            "direct_routing_vs_nat",
        ],
    );
}

/// §2.3 / §6: the capability matrix — X-Containers is the only LibOS
/// platform with binary compatibility *and* concurrent multiprocessing.
#[test]
fn claim_capability_uniqueness() {
    assert_claims(&fig6::run(), ["x_only_full_libos"]);
}
