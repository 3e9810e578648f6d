//! Property-based tests for the guest-kernel substrate: cost-model
//! monotonicity and ordering.

use proptest::prelude::*;
use xc_libos::backend::Backend;
use xc_libos::config::KernelConfig;
use xc_libos::net::{NetPath, NetStack};
use xc_sim::cost::CostModel;
use xc_xen::blanket::XenBlanket;

proptest! {
    /// Network costs are monotone in payload size for every path.
    #[test]
    fn net_costs_monotone(small in 1u64..32_768, delta in 1u64..32_768) {
        let costs = CostModel::skylake_cloud();
        for path in [
            NetPath::NativeBridge { iptables_rules: 1 },
            NetPath::SplitDriver { blanket: XenBlanket::cloud(), iptables_rules: 1 },
        ] {
            let stack = NetStack::new(Backend::Native, KernelConfig::docker_default(), path);
            prop_assert!(stack.send_cost(&costs, small + delta) >= stack.send_cost(&costs, small));
            prop_assert!(stack.recv_cost(&costs, small + delta) >= stack.recv_cost(&costs, small));
        }
    }

    /// Syscall dispatch cost ordering holds for any KPTI combination:
    /// optimized X-Kernel ≤ native ≤ PV-forwarded.
    #[test]
    fn backend_ordering_stable(kpti in any::<bool>()) {
        let costs = CostModel::skylake_cloud();
        let mut cfg = KernelConfig::docker_default();
        cfg.kpti = kpti;
        let xk = Backend::XKernel.syscall_cost(&costs, &cfg, true);
        let native = Backend::Native.syscall_cost(&costs, &cfg, false);
        let pv = Backend::XenPv.syscall_cost(&costs, &cfg, false);
        prop_assert!(xk < native);
        prop_assert!(native < pv);
    }
}
