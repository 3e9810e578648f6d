//! Software RDMA (§5.7, first paragraph).
//!
//! "The X-Containers platform enables applications that require customized
//! kernel modules to run in containers. For example, X-Containers can run
//! software RDMA (both Soft-iwarp and Soft-ROCE) applications. In Docker
//! environments, such modules require root privilege and expose the host
//! network to the container directly, raising security concerns."
//!
//! The model compares a ping-pong message exchange over plain TCP sockets
//! against soft-RDMA verbs: after memory registration, an RDMA write is
//! issued by ringing a doorbell on a mapped queue pair — **no syscall, no
//! socket buffer copy on the send side** — while the soft transport still
//! runs the wire protocol in the kernel. The capability gate is the real
//! point: loading `rdma_rxe`/`siw` needs a kernel *you own*.

use xc_runtimes::platform::{Platform, PlatformKind};
use xc_sim::cost::CostModel;
use xc_sim::time::Nanos;

/// Transport for the ping-pong exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Plain TCP sockets (`send`/`recv` syscalls per message).
    TcpSockets,
    /// Soft-RDMA verbs (kernel-bypass submission onto a mapped QP).
    SoftRdma,
}

/// Whether the platform can use a transport at all.
///
/// Docker cannot load RDMA modules without host root and host-network
/// exposure (§5.7); any platform owning its kernel just loads the module.
pub fn transport_available(platform: &Platform, transport: Transport) -> bool {
    match transport {
        Transport::TcpSockets => true,
        Transport::SoftRdma => matches!(
            platform.kind(),
            PlatformKind::XContainer | PlatformKind::XenContainer | PlatformKind::Unikernel
        ),
    }
}

/// One-way latency of a `bytes`-sized message on `platform` over
/// `transport`, or `None` when the transport is unavailable.
pub fn message_latency(
    platform: &Platform,
    transport: Transport,
    bytes: u64,
    costs: &CostModel,
) -> Option<Nanos> {
    if !transport_available(platform, transport) {
        return None;
    }
    let net = platform.net_stack(costs);
    let latency = match transport {
        Transport::TcpSockets => {
            // send syscall + kernel TX path on one side, RX path + recv
            // syscall on the other, plus the wire.
            platform.syscall_cost(costs)
                + net.send_cost(costs, bytes)
                + costs.wire_latency
                + net.recv_cost(costs, bytes)
                + platform.syscall_cost(costs)
        }
        Transport::SoftRdma => {
            // Doorbell write (user space), soft transport runs the wire
            // protocol in-kernel but skips the socket layer and the
            // receiver is completed by polling a CQ — no syscalls.
            let doorbell = costs.function_call + costs.memcpy_per_kb; // WQE write
            let soft_tx = (costs.tcp_segment / 2) * xc_libos::net::NetStack::segments(bytes)
                + costs.copy_bytes(bytes);
            let completion_poll = costs.function_call * 2;
            doorbell + soft_tx + costs.wire_latency + completion_poll
        }
    };
    Some(platform.environment_adjust(latency))
}

/// Round-trip latency (the ping-pong benchmark's unit).
pub fn ping_pong_latency(
    platform: &Platform,
    transport: Transport,
    bytes: u64,
    costs: &CostModel,
) -> Option<Nanos> {
    message_latency(platform, transport, bytes, costs).map(|l| l * 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xc_runtimes::cloud::CloudEnv;

    fn c() -> CostModel {
        CostModel::skylake_cloud()
    }

    #[test]
    fn docker_cannot_use_soft_rdma() {
        let costs = c();
        let docker = Platform::docker(CloudEnv::LocalCluster, true);
        assert!(message_latency(&docker, Transport::SoftRdma, 64, &costs).is_none());
        assert!(message_latency(&docker, Transport::TcpSockets, 64, &costs).is_some());
    }

    #[test]
    fn x_container_loads_the_module_and_wins_small_messages() {
        let costs = c();
        let xc = Platform::x_container(CloudEnv::LocalCluster, true);
        assert!(transport_available(&xc, Transport::SoftRdma));
        let tcp = ping_pong_latency(&xc, Transport::TcpSockets, 64, &costs).unwrap();
        let rdma = ping_pong_latency(&xc, Transport::SoftRdma, 64, &costs).unwrap();
        assert!(
            rdma < tcp,
            "verbs must beat sockets for small messages: rdma {rdma} tcp {tcp}"
        );
    }

    #[test]
    fn advantage_holds_at_every_size_and_grows_with_bulk() {
        // Small messages are wire-latency-bound (the in-host RTT dwarfs
        // the stack savings); bulk transfers expose the socket layer's
        // per-segment overhead, so soft-RDMA's relative edge *grows*.
        let costs = c();
        let xc = Platform::x_container(CloudEnv::LocalCluster, true);
        let ratio = |bytes: u64| {
            let tcp = ping_pong_latency(&xc, Transport::TcpSockets, bytes, &costs).unwrap();
            let rdma = ping_pong_latency(&xc, Transport::SoftRdma, bytes, &costs).unwrap();
            tcp.as_nanos() as f64 / rdma.as_nanos() as f64
        };
        assert!(ratio(64) > 1.0, "verbs never lose: {:.2}", ratio(64));
        assert!(
            ratio(256 * 1024) > ratio(64),
            "bulk exposes socket overhead: {:.2} vs {:.2}",
            ratio(256 * 1024),
            ratio(64)
        );
    }

    #[test]
    fn latency_monotone_in_size() {
        let costs = c();
        let xc = Platform::x_container(CloudEnv::LocalCluster, true);
        for transport in [Transport::TcpSockets, Transport::SoftRdma] {
            let small = message_latency(&xc, transport, 64, &costs).unwrap();
            let large = message_latency(&xc, transport, 1 << 20, &costs).unwrap();
            assert!(large > small);
        }
    }
}
