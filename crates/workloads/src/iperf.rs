//! `iperf` TCP stream throughput (Figure 5).
//!
//! A sender pushes large buffers through a TCP stream as fast as the
//! kernel path allows. Throughput is CPU-bound on the per-byte and
//! per-segment kernel costs (all platforms share the same physical NIC),
//! so the figure normalizes CPU cost per byte.

use xc_runtimes::platform::Platform;
use xc_sim::cost::CostModel;

/// Application write size per send call (iperf default 128 KiB).
pub const SEND_SIZE: u64 = 128 * 1024;

/// Physical NIC line rate in bits per second (10 GbE in the local
/// cluster; cloud instances were also 10 Gb-class).
pub const LINE_RATE_BPS: f64 = 10e9;

/// Achievable throughput in bits per second: the CPU-bound rate capped
/// at line rate.
pub fn throughput_bps(platform: &Platform, costs: &CostModel) -> f64 {
    let net = platform.net_stack(costs);
    let per_send = platform.syscall_cost(costs)
        + net
            .send_cost(costs, SEND_SIZE)
            .scale(platform.net_work_multiplier());
    let per_send = platform.environment_adjust(per_send);
    let cpu_bound = SEND_SIZE as f64 * 8.0 / per_send.as_secs_f64();
    cpu_bound.min(LINE_RATE_BPS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xc_runtimes::cloud::CloudEnv;

    #[test]
    fn iperf_is_roughly_flat_across_real_contenders() {
        // Figure 5: iperf shows all platforms near Docker except gVisor.
        let costs = CostModel::skylake_cloud();
        let cloud = CloudEnv::AmazonEc2;
        let docker = throughput_bps(&Platform::docker(cloud, true), &costs);
        let xc = throughput_bps(&Platform::x_container(cloud, true), &costs);
        let xen = throughput_bps(&Platform::xen_container(cloud, true), &costs);
        let rel_x = xc / docker;
        let rel_xen = xen / docker;
        assert!((0.7..1.4).contains(&rel_x), "x rel {rel_x}");
        assert!((0.5..1.2).contains(&rel_xen), "xen rel {rel_xen}");
    }

    #[test]
    fn gvisor_network_collapses() {
        let costs = CostModel::skylake_cloud();
        let cloud = CloudEnv::AmazonEc2;
        let docker = throughput_bps(&Platform::docker(cloud, true), &costs);
        let gv = throughput_bps(&Platform::gvisor(cloud, true), &costs);
        assert!(gv < docker * 0.75, "gVisor {gv} vs docker {docker}");
    }

    #[test]
    fn line_rate_cap_applies() {
        let costs = CostModel::skylake_cloud();
        for p in Platform::cloud_configurations(CloudEnv::GoogleGce) {
            assert!(throughput_bps(&p, &costs) <= LINE_RATE_BPS);
        }
    }
}
