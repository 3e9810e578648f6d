//! Figure 9 — kernel-level load balancing (§5.7).
//!
//! Topology: three single-worker NGINX backends plus one load balancer on
//! the same physical machine, driven by `wrk`. Four configurations:
//!
//! * **Docker + HAProxy** — user-space proxying on the shared host kernel,
//! * **X-Container + HAProxy** — the same proxy, but its syscall storm is
//!   ABOM-optimized (the paper's 2× gain),
//! * **X-Container + IPVS NAT** — kernel-level forwarding; responses
//!   return through the balancer, which stays the bottleneck (+12%),
//! * **X-Container + IPVS direct routing** — responses bypass the
//!   balancer entirely; the bottleneck shifts to the NGINX backends
//!   (another ~2.5×).
//!
//! IPVS requires inserting kernel modules and rewriting iptables/ARP
//! rules — possible in an X-Container because the kernel is *yours*, and
//! not possible in Docker without host root (§5.7's point).

use xc_runtimes::cloud::CloudEnv;
use xc_runtimes::platform::Platform;
use xc_sim::cost::CostModel;
use xc_sim::time::Nanos;

use crate::apps::{haproxy_forward, nginx_static};

/// Request and response sizes on the wire (static NGINX page).
const REQ_BYTES: u64 = 120;
const RESP_BYTES: u64 = 850;

/// Per-packet connection-tracking work IPVS/netfilter performs.
const CONNTRACK_PER_PACKET: Nanos = Nanos::from_nanos(550);

/// Number of backend NGINX servers.
pub const BACKENDS: u32 = 3;

/// The four Figure 9 configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LbMode {
    /// HAProxy in a Docker container.
    HaproxyDocker,
    /// HAProxy in an X-Container.
    HaproxyXContainer,
    /// IPVS masquerading (NAT) in an X-Container kernel.
    IpvsNat,
    /// IPVS direct routing in X-Container kernels (balancer + backends).
    IpvsDirectRouting,
}

impl LbMode {
    /// All modes in figure order.
    pub const ALL: [LbMode; 4] = [
        LbMode::HaproxyDocker,
        LbMode::HaproxyXContainer,
        LbMode::IpvsNat,
        LbMode::IpvsDirectRouting,
    ];

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            LbMode::HaproxyDocker => "Docker (haproxy)",
            LbMode::HaproxyXContainer => "X-Container (haproxy)",
            LbMode::IpvsNat => "X-Container (ipvs NAT)",
            LbMode::IpvsDirectRouting => "X-Container (ipvs Route)",
        }
    }

    /// The platform both the balancer and the backends run on. Direct
    /// routing additionally rewires the backends' kernels (ARP rules +
    /// the IPVS module) — free on X-Containers, whose kernels are their
    /// own.
    fn platform(self) -> Platform {
        match self {
            LbMode::HaproxyDocker => Platform::docker(CloudEnv::LocalCluster, true),
            _ => Platform::x_container(CloudEnv::LocalCluster, true),
        }
    }
}

/// CPU cost for the balancer to shepherd one request+response pair.
pub fn balancer_cost(mode: LbMode, costs: &CostModel) -> Nanos {
    let platform = mode.platform();
    match mode {
        LbMode::HaproxyDocker | LbMode::HaproxyXContainer => {
            // User-space proxy: terminate, re-originate, relay back.
            haproxy_forward().service_time(&platform, costs)
        }
        LbMode::IpvsNat => {
            // Kernel forward of the request and the (NAT-rewritten)
            // response; packets still traverse the split driver twice per
            // hop because the balancer kernel sits in its own container.
            let net = platform.net_stack(costs);
            let fwd = net.forward_cost(costs, REQ_BYTES)
                + net.forward_cost(costs, RESP_BYTES)
                + net.recv_cost(costs, REQ_BYTES).scale(0.5)
                + net.send_cost(costs, RESP_BYTES).scale(0.5)
                + CONNTRACK_PER_PACKET * 4;
            platform.environment_adjust(fwd)
        }
        LbMode::IpvsDirectRouting => {
            // Only the inbound request passes through; the response goes
            // straight from the backend to the client.
            let net = platform.net_stack(costs);
            let fwd = net.forward_cost(costs, REQ_BYTES) + CONNTRACK_PER_PACKET;
            platform.environment_adjust(fwd)
        }
    }
}

/// CPU cost for one backend to serve one request.
pub fn backend_cost(mode: LbMode, costs: &CostModel) -> Nanos {
    nginx_static().service_time(&mode.platform(), costs)
}

/// Aggregate throughput: the slower of the balancer and the backend pool
/// (every component is single-worker / single-vCPU, §5.7).
pub fn throughput(mode: LbMode, costs: &CostModel) -> f64 {
    let lb = 1.0 / balancer_cost(mode, costs).as_secs_f64();
    let pool = f64::from(BACKENDS) / backend_cost(mode, costs).as_secs_f64();
    lb.min(pool)
}

/// Which component saturates first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// The load balancer is the limit.
    Balancer,
    /// The NGINX backends are the limit.
    Backends,
}

/// Reports the saturating component for a mode.
pub fn bottleneck(mode: LbMode, costs: &CostModel) -> Bottleneck {
    let lb = 1.0 / balancer_cost(mode, costs).as_secs_f64();
    let pool = f64::from(BACKENDS) / backend_cost(mode, costs).as_secs_f64();
    if lb <= pool {
        Bottleneck::Balancer
    } else {
        Bottleneck::Backends
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c() -> CostModel {
        CostModel::skylake_cloud()
    }

    #[test]
    fn x_haproxy_roughly_doubles_docker_haproxy() {
        // "X-Containers with HAProxy achieved twice the throughput of
        // Docker containers" (§5.7).
        let costs = c();
        let docker = throughput(LbMode::HaproxyDocker, &costs);
        let x = throughput(LbMode::HaproxyXContainer, &costs);
        let ratio = x / docker;
        assert!((1.5..2.8).contains(&ratio), "haproxy ratio {ratio:.2}");
    }

    #[test]
    fn ipvs_nat_improves_moderately_and_stays_lb_bound() {
        // "+12%. In this case the load balancer was the bottleneck."
        let costs = c();
        let hx = throughput(LbMode::HaproxyXContainer, &costs);
        let nat = throughput(LbMode::IpvsNat, &costs);
        let gain = nat / hx;
        assert!((1.02..1.6).contains(&gain), "NAT gain {gain:.2}");
        assert_eq!(bottleneck(LbMode::IpvsNat, &costs), Bottleneck::Balancer);
    }

    #[test]
    fn direct_routing_shifts_bottleneck_and_multiplies() {
        // "With direct routing mode, the bottleneck shifted to the NGINX
        // servers, and total throughput improved by another factor of 2.5."
        let costs = c();
        let nat = throughput(LbMode::IpvsNat, &costs);
        let dr = throughput(LbMode::IpvsDirectRouting, &costs);
        let gain = dr / nat;
        assert!((1.7..3.5).contains(&gain), "DR gain {gain:.2}");
        assert_eq!(
            bottleneck(LbMode::IpvsDirectRouting, &costs),
            Bottleneck::Backends
        );
    }

    #[test]
    fn figure_ordering_monotone() {
        let costs = c();
        let values: Vec<f64> = LbMode::ALL.iter().map(|m| throughput(*m, &costs)).collect();
        for pair in values.windows(2) {
            assert!(pair[1] > pair[0], "figure bars must increase: {values:?}");
        }
    }
}
