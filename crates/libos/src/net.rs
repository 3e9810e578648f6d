//! Network stack path model.
//!
//! Every networked experiment in the paper funnels through one of two
//! data paths:
//!
//! * **native bridge** — Docker's veth + bridge + iptables port
//!   forwarding on the host kernel (§5.3: "the servers were exposed to
//!   clients via port forwarding in iptables"),
//! * **split driver** — netfront in the guest, netback in the driver
//!   domain, grant copies in between (Xen-Containers and X-Containers),
//!   optionally nested through Xen-Blanket in public clouds.
//!
//! The model composes the per-message kernel cost of a send or receive
//! from segments, kernel entries, copies, and path-specific extras.
//! IPVS-style in-kernel forwarding without a user-space socket round
//! trip (Figure 9's NAT and direct-routing modes) is
//! [`NetStack::forward_cost`] on the forwarding node's stack.

use xc_sim::cost::CostModel;
use xc_sim::time::Nanos;
use xc_xen::blanket::XenBlanket;

use crate::backend::Backend;
use crate::config::KernelConfig;

/// TCP maximum segment size used for segmentation (standard Ethernet).
pub const MSS: u64 = 1448;

/// Which data path packets traverse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetPath {
    /// Host kernel with veth/bridge hop and `iptables` NAT rules.
    NativeBridge {
        /// NAT rule sets traversed per packet.
        iptables_rules: u32,
    },
    /// Xen split driver (front-end/back-end with grant copies), plus the
    /// same iptables forwarding in the driver domain.
    SplitDriver {
        /// Blanket nesting (cloud deployments).
        blanket: XenBlanket,
        /// NAT rule sets traversed per packet.
        iptables_rules: u32,
    },
}

/// A configured network stack endpoint.
#[derive(Debug, Clone)]
pub struct NetStack {
    backend: Backend,
    config: KernelConfig,
    path: NetPath,
    entry_surcharge: Nanos,
}

impl NetStack {
    /// Creates a stack for the given deployment.
    pub fn new(backend: Backend, config: KernelConfig, path: NetPath) -> Self {
        NetStack {
            backend,
            config,
            path,
            entry_surcharge: Nanos::ZERO,
        }
    }

    /// Adds a per-kernel-entry surcharge on top of the backend's entry
    /// cost — nested VM exits for Clear Containers, ptrace stops for
    /// gVisor's sentry.
    pub fn with_entry_surcharge(mut self, surcharge: Nanos) -> Self {
        self.entry_surcharge = surcharge;
        self
    }

    /// Number of MSS segments for a payload.
    pub fn segments(bytes: u64) -> u64 {
        bytes.div_ceil(MSS).max(1)
    }

    fn per_segment_path_extra(&self, costs: &CostModel) -> Nanos {
        match self.path {
            NetPath::NativeBridge { iptables_rules } => {
                costs.bridge_hop + costs.iptables_nat * u64::from(iptables_rules)
            }
            NetPath::SplitDriver {
                blanket,
                iptables_rules,
            } => {
                // Grant copy of the segment + ring notify amortized over a
                // batch of ~8 segments + iptables in the driver domain.
                costs.grant_copy_bytes(MSS)
                    + costs.ring_notify / 8
                    + costs.iptables_nat * u64::from(iptables_rules)
                    + blanket.io_batch_overhead(costs, 2) / 8
            }
        }
    }

    /// Kernel-side cost of sending `bytes` from user space: copy out,
    /// TCP/IP processing per segment, path extras, NIC handoff. Syscall
    /// dispatch is charged separately by the caller.
    pub fn send_cost(&self, costs: &CostModel, bytes: u64) -> Nanos {
        let segments = Self::segments(bytes);
        // Kernel tuning (§3.2) trims protocol work, not grant copies or
        // NAT traversal.
        let tcp = (costs.tcp_segment * segments).scale(self.config.kernel_work_factor());
        let extras = self.per_segment_path_extra(costs) * segments;
        // One kernel entry per send call (TX doorbell/kick).
        costs.copy_bytes(bytes)
            + tcp
            + extras
            + self.entry_surcharge
            + costs.nic_per_kb * bytes.div_ceil(1024)
    }

    /// Kernel-side cost of receiving `bytes`: interrupt/event entries
    /// (one per ~4 segments with NAPI-style batching), TCP/IP processing,
    /// path extras, copy to user space.
    pub fn recv_cost(&self, costs: &CostModel, bytes: u64) -> Nanos {
        let segments = Self::segments(bytes);
        let entries = segments.div_ceil(4);
        let tcp = (costs.tcp_segment * segments).scale(self.config.kernel_work_factor());
        let extras = self.per_segment_path_extra(costs) * segments;
        (self.backend.event_entry_cost(costs, &self.config) + self.entry_surcharge) * entries
            + tcp
            + extras
            + costs.copy_bytes(bytes)
    }

    /// Cost for this node to *forward* a message of `bytes` in-kernel
    /// (IPVS). For user-space proxies use a recv + send pair instead.
    pub fn forward_cost(&self, costs: &CostModel, bytes: u64) -> Nanos {
        let segments = Self::segments(bytes);
        let entries = segments.div_ceil(4);
        // No copies to user space: rewrite headers and retransmit.
        self.backend.event_entry_cost(costs, &self.config) * entries
            + (costs.tcp_segment / 2 + costs.iptables_nat) * segments
    }

    /// One-way wire latency to a peer in the same zone.
    pub fn wire_latency(&self, costs: &CostModel) -> Nanos {
        costs.wire_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stacks() -> (NetStack, NetStack, CostModel) {
        let costs = CostModel::skylake_cloud();
        let docker = NetStack::new(
            Backend::Native,
            KernelConfig::docker_default(),
            NetPath::NativeBridge { iptables_rules: 1 },
        );
        let xc = NetStack::new(
            Backend::XKernel,
            KernelConfig::xlibos_default(),
            NetPath::SplitDriver {
                blanket: XenBlanket::cloud(),
                iptables_rules: 1,
            },
        );
        (docker, xc, costs)
    }

    #[test]
    fn segmentation() {
        assert_eq!(NetStack::segments(0), 1);
        assert_eq!(NetStack::segments(MSS), 1);
        assert_eq!(NetStack::segments(MSS + 1), 2);
        assert_eq!(NetStack::segments(10 * MSS), 10);
    }

    #[test]
    fn costs_scale_with_size() {
        let (docker, _, costs) = stacks();
        let small = docker.send_cost(&costs, 512);
        let large = docker.send_cost(&costs, 64 * 1024);
        assert!(large > small * 10);
    }

    #[test]
    fn split_driver_path_costs_more_than_native_path() {
        // Pure data-path comparison (identical kernel config): the split
        // driver pays grant copies that native doesn't — why iperf shows
        // no X-Container win (Figure 5).
        let costs = CostModel::skylake_cloud();
        let cfg = KernelConfig::docker_unpatched();
        let native = NetStack::new(
            Backend::Native,
            cfg,
            NetPath::NativeBridge { iptables_rules: 1 },
        );
        let xc = NetStack::new(
            Backend::XKernel,
            cfg,
            NetPath::SplitDriver {
                blanket: XenBlanket::cloud(),
                iptables_rules: 1,
            },
        );
        assert!(xc.send_cost(&costs, 16 * 1024) > native.send_cost(&costs, 16 * 1024));
    }

    #[test]
    fn kpti_taxes_native_receive_path() {
        let costs = CostModel::skylake_cloud();
        let patched = NetStack::new(
            Backend::Native,
            KernelConfig::docker_default(),
            NetPath::NativeBridge { iptables_rules: 1 },
        );
        let unpatched = NetStack::new(
            Backend::Native,
            KernelConfig::docker_unpatched(),
            NetPath::NativeBridge { iptables_rules: 1 },
        );
        assert!(patched.recv_cost(&costs, 8 * 1024) > unpatched.recv_cost(&costs, 8 * 1024));
    }

    #[test]
    fn kernel_forward_cheaper_than_proxy_round_trip() {
        // Figure 9: IPVS beats HAProxy because forwarding skips user space.
        let (_, xc, costs) = stacks();
        let proxy_cost = xc.recv_cost(&costs, 4096) + xc.send_cost(&costs, 4096);
        let forward_cost = xc.forward_cost(&costs, 4096);
        assert!(forward_cost < proxy_cost / 2);
    }

    #[test]
    fn iptables_rules_add_up() {
        let costs = CostModel::skylake_cloud();
        let none = NetStack::new(
            Backend::Native,
            KernelConfig::docker_unpatched(),
            NetPath::NativeBridge { iptables_rules: 0 },
        );
        let many = NetStack::new(
            Backend::Native,
            KernelConfig::docker_unpatched(),
            NetPath::NativeBridge { iptables_rules: 8 },
        );
        assert!(many.send_cost(&costs, 4096) > none.send_cost(&costs, 4096));
    }
}
