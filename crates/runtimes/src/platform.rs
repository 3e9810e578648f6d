//! Platform compositions.
//!
//! A [`Platform`] bundles everything a workload needs to price its
//! operations on one of the paper's configurations: syscall dispatch,
//! interrupt entry, context switches, fork/exec, and the network path.
//! Each constructor documents how the architecture maps onto substrate
//! primitives; none of them hard-codes a benchmark result.

use std::fmt;

use xc_libos::backend::Backend;
use xc_libos::config::KernelConfig;
use xc_libos::net::{NetPath, NetStack};
use xc_sim::cost::CostModel;
use xc_sim::time::Nanos;

use crate::cloud::CloudEnv;

/// The platform families of §5.1 and §5.5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatformKind {
    /// Native Docker on the host kernel.
    Docker,
    /// Container in an unmodified Xen PV instance (LightVM-style).
    XenContainer,
    /// The paper's system.
    XContainer,
    /// Google gVisor (ptrace platform).
    Gvisor,
    /// Intel Clear Containers under nested KVM.
    ClearContainer,
    /// Graphene LibOS on Linux.
    Graphene,
    /// Rumprun unikernel on Xen.
    Unikernel,
}

impl PlatformKind {
    /// Display name as used in the figures.
    pub fn label(self) -> &'static str {
        match self {
            PlatformKind::Docker => "Docker",
            PlatformKind::XenContainer => "Xen-Container",
            PlatformKind::XContainer => "X-Container",
            PlatformKind::Gvisor => "gVisor",
            PlatformKind::ClearContainer => "Clear-Container",
            PlatformKind::Graphene => "Graphene",
            PlatformKind::Unikernel => "Unikernel",
        }
    }
}

/// A fully configured platform.
#[derive(Debug, Clone)]
pub struct Platform {
    kind: PlatformKind,
    cloud: CloudEnv,
    /// Whether the *hardware-facing* kernel (host kernel or hypervisor)
    /// carries the Meltdown patch.
    patched: bool,
    backend: Backend,
    guest_config: KernelConfig,
    abom_enabled: bool,
}

/// The stock kernel with the Meltdown patch as the host has it.
fn stock_kernel(patched: bool) -> KernelConfig {
    KernelConfig {
        kpti: patched,
        ..KernelConfig::docker_default()
    }
}

impl Platform {
    /// Native Docker: shared host kernel, default seccomp profile,
    /// bridge + iptables networking.
    pub fn docker(cloud: CloudEnv, patched: bool) -> Platform {
        Platform {
            kind: PlatformKind::Docker,
            cloud,
            patched,
            backend: Backend::Native,
            guest_config: stock_kernel(patched),
            abom_enabled: false,
        }
    }

    /// Xen-Container: "exactly the same software stack … as X-Containers.
    /// The only difference is the underlying hypervisor (unmodified Xen vs
    /// X-Kernel) and guest kernel (unmodified Linux vs X-LibOS)" (§5.1).
    pub fn xen_container(cloud: CloudEnv, patched: bool) -> Platform {
        Platform {
            kind: PlatformKind::XenContainer,
            cloud,
            patched,
            backend: Backend::XenPv,
            guest_config: stock_kernel(patched),
            abom_enabled: false,
        }
    }

    /// X-Container: X-LibOS on the X-Kernel with ABOM enabled.
    pub fn x_container(cloud: CloudEnv, patched: bool) -> Platform {
        Platform {
            kind: PlatformKind::XContainer,
            cloud,
            patched,
            backend: Backend::XKernel,
            guest_config: KernelConfig::xlibos_default(),
            abom_enabled: true,
        }
    }

    /// X-Container with ABOM disabled — the §5.2 ablation baseline.
    pub fn x_container_no_abom(cloud: CloudEnv, patched: bool) -> Platform {
        Platform {
            abom_enabled: false,
            ..Platform::x_container(cloud, patched)
        }
    }

    /// gVisor with the ptrace platform (as deployed in the paper's era).
    pub fn gvisor(cloud: CloudEnv, patched: bool) -> Platform {
        Platform {
            kind: PlatformKind::Gvisor,
            cloud,
            patched,
            backend: Backend::Native,
            guest_config: stock_kernel(patched),
            abom_enabled: false,
        }
    }

    /// Clear Containers under nested KVM. Returns `None` where nested
    /// hardware virtualization is unavailable (Amazon EC2, §1).
    ///
    /// Per §5.1, only the host kernel is ever patched; the guest kernel in
    /// the nested VM stays unpatched in both configurations.
    pub fn clear_container(cloud: CloudEnv, patched: bool) -> Option<Platform> {
        cloud.nested_virt_available().then(|| Platform {
            kind: PlatformKind::ClearContainer,
            cloud,
            patched,
            backend: Backend::Native,
            guest_config: KernelConfig::docker_unpatched(),
            abom_enabled: false,
        })
    }

    /// Graphene on Linux, compiled without the security isolation module
    /// (§5.5).
    pub fn graphene(cloud: CloudEnv) -> Platform {
        Platform {
            kind: PlatformKind::Graphene,
            cloud,
            patched: false,
            backend: Backend::Native,
            guest_config: KernelConfig::docker_unpatched(),
            abom_enabled: false,
        }
    }

    /// Rumprun unikernel on Xen (§5.5).
    pub fn unikernel(cloud: CloudEnv) -> Platform {
        Platform {
            kind: PlatformKind::Unikernel,
            cloud,
            patched: false,
            backend: Backend::XKernel, // same-privilege LibOS structure
            guest_config: KernelConfig::xlibos_uniprocessor(),
            abom_enabled: true, // statically linked: calls, not traps
        }
    }

    /// The ten §5.1 cloud configurations for `cloud`, in figure order
    /// (patched first, then `-unpatched`). Clear Containers appear only
    /// where nested virtualization exists.
    pub fn cloud_configurations(cloud: CloudEnv) -> Vec<Platform> {
        let mut out = Vec::new();
        for patched in [true, false] {
            out.push(Platform::docker(cloud, patched));
            out.push(Platform::xen_container(cloud, patched));
            out.push(Platform::x_container(cloud, patched));
            out.push(Platform::gvisor(cloud, patched));
            if let Some(cc) = Platform::clear_container(cloud, patched) {
                out.push(cc);
            }
        }
        out
    }

    /// Platform family.
    pub fn kind(&self) -> PlatformKind {
        self.kind
    }

    /// The environment this instance is configured for.
    pub fn cloud(&self) -> CloudEnv {
        self.cloud
    }

    /// Whether the hardware-facing kernel carries the Meltdown patch.
    pub fn is_patched(&self) -> bool {
        self.patched
    }

    /// Figure-style name, e.g. `X-Container-unpatched`.
    pub fn name(&self) -> String {
        if self.patched || matches!(self.kind, PlatformKind::Graphene | PlatformKind::Unikernel) {
            self.kind.label().to_owned()
        } else {
            format!("{}-unpatched", self.kind.label())
        }
    }

    /// Whether ABOM rewrites this platform's syscalls.
    pub fn abom_enabled(&self) -> bool {
        self.abom_enabled
    }

    // ---- capability flags (§2.3, §6) ---------------------------------

    /// Full binary compatibility with Linux applications.
    pub fn binary_compatible(&self) -> bool {
        !matches!(self.kind, PlatformKind::Unikernel | PlatformKind::Graphene)
    }

    /// Can run multiple processes in one container.
    pub fn supports_multiprocess(&self) -> bool {
        !matches!(self.kind, PlatformKind::Unikernel)
    }

    /// Can run processes *concurrently* on multiple cores (§2.3: gVisor's
    /// ptrace platform serializes; unikernels are single-vCPU).
    pub fn supports_multicore(&self) -> bool {
        !matches!(self.kind, PlatformKind::Gvisor | PlatformKind::Unikernel)
    }

    // ---- cost compositions --------------------------------------------

    /// Multiplier on network protocol work relative to a tuned Linux
    /// stack. gVisor's TCP stack runs in the Go sentry at roughly twice
    /// the per-segment cost; Graphene's PAL adds marshalling; Rumprun's
    /// NetBSD stack is close to Linux for plain packet pushing (its
    /// Figure 6a NGINX numbers match X-Containers).
    pub fn net_work_multiplier(&self) -> f64 {
        match self.kind {
            PlatformKind::Gvisor => 2.2,
            PlatformKind::Graphene => 1.30,
            PlatformKind::Unikernel => 1.05,
            _ => 1.0,
        }
    }

    /// Multiplier on non-network kernel work (file I/O, buffer
    /// management, IPC internals). This is where Rumprun falls behind —
    /// "the Linux kernel outperforms the Rumprun kernel for this
    /// benchmark" is the paper's explanation for the MySQL gap in
    /// Figure 6c (§5.5).
    pub fn kernel_ops_multiplier(&self) -> f64 {
        match self.kind {
            PlatformKind::Gvisor => 2.2,
            PlatformKind::Graphene => 1.30,
            PlatformKind::Unikernel => 3.0,
            _ => 1.0,
        }
    }

    /// Dispatch cost of one (steady-state) syscall.
    pub fn syscall_cost(&self, costs: &CostModel) -> Nanos {
        match self.kind {
            PlatformKind::Docker => {
                self.backend.syscall_cost(costs, &self.guest_config, false) + costs.seccomp_filter
            }
            PlatformKind::XenContainer => {
                self.backend.syscall_cost(costs, &self.guest_config, false)
            }
            PlatformKind::XContainer => {
                self.backend
                    .syscall_cost(costs, &self.trap_kernel(), self.abom_enabled)
            }
            PlatformKind::Gvisor => {
                // Entry + exit ptrace stops, the sentry's own work, and
                // the host syscalls the sentry issues on the app's behalf.
                let host = Backend::Native.syscall_cost(costs, &self.guest_config, false)
                    + costs.seccomp_filter;
                costs.ptrace_stop * 2 + costs.vsyscall_dispatch * 40 + host
            }
            PlatformKind::ClearContainer => {
                // Native trap inside the nested guest; syscalls do not
                // VM-exit. Guest kernel unpatched and slimmed.
                Backend::Native.syscall_cost(costs, &self.guest_config, false)
            }
            PlatformKind::Graphene => {
                // The in-process libOS fields the call, but I/O-class
                // syscalls (the ones benchmarks are made of) drop through
                // the PAL to a real host syscall with marshalling on both
                // sides.
                let pal_marshalling = costs.vsyscall_dispatch * 60;
                costs.vsyscall_dispatch * 6
                    + costs.function_call
                    + pal_marshalling
                    + Backend::Native.syscall_cost(costs, &self.guest_config, false)
            }
            PlatformKind::Unikernel => {
                Backend::XKernel.syscall_cost(costs, &self.guest_config, true)
            }
        }
    }

    /// Dispatch cost of a syscall at a site ABOM has *not* (yet) patched.
    /// Equals [`Platform::syscall_cost`] everywhere except X-Containers.
    pub fn syscall_cost_trapped(&self, costs: &CostModel) -> Nanos {
        match self.kind {
            PlatformKind::XContainer | PlatformKind::Unikernel => {
                self.backend.syscall_cost(costs, &self.trap_kernel(), false)
            }
            _ => self.syscall_cost(costs),
        }
    }

    /// The guest kernel as the trap path sees it: the trap crosses into
    /// the X-Kernel, which carries the patch when `patched` (the §5.1
    /// port of KPTI to Xen).
    fn trap_kernel(&self) -> KernelConfig {
        KernelConfig {
            kpti: self.patched,
            ..self.guest_config
        }
    }

    /// Cost of taking one device/network event batch into the kernel.
    pub fn event_entry_cost(&self, costs: &CostModel) -> Nanos {
        let base = self.backend.event_entry_cost(costs, &self.guest_config);
        match self.kind {
            PlatformKind::Gvisor => {
                // Packets surface in the host, then are injected into the
                // sentry's netstack.
                base + costs.ptrace_stop
            }
            PlatformKind::ClearContainer => {
                // Virtio interrupts VM-exit, and under nesting each exit
                // bounces through L0 and L1.
                base + costs.vmexit + costs.nested_vmexit_extra
            }
            _ => base,
        }
    }

    /// Context switch between processes, with `runnable` tasks queued.
    pub fn context_switch_cost(&self, costs: &CostModel, runnable: u64) -> Nanos {
        let base = self.backend.context_switch_cost(costs, runnable);
        match self.kind {
            // The sentry intercepts the switch and re-dispatches.
            PlatformKind::Gvisor => base + costs.ptrace_stop * 2,
            _ => base,
        }
    }

    /// `fork()` of a process with `resident_pages`.
    pub fn fork_cost(&self, costs: &CostModel, resident_pages: u64) -> Nanos {
        let base = self.backend.fork_cost(costs, resident_pages);
        match self.kind {
            // gVisor forks inside the sentry: every page table operation
            // is emulated via host calls, and the new tracee must be
            // attached and resumed through additional ptrace round trips.
            PlatformKind::Gvisor => base * 5 + costs.ptrace_stop * 8,
            _ => base,
        }
    }

    /// `execve()` of an image with `image_pages` pages whose loading
    /// performs `loader_syscalls` syscalls (ELF headers, mmaps,
    /// dynamic-linker reads). The loader's syscalls are charged at this
    /// platform's dispatch rate, which is why cheap syscalls speed up
    /// `exec` (Figure 5's Execl panel).
    pub fn exec_cost(&self, costs: &CostModel, image_pages: u64, loader_syscalls: u64) -> Nanos {
        self.backend.exec_cost(costs, image_pages) + self.syscall_cost(costs) * loader_syscalls
    }

    /// The network stack endpoint for servers on this platform.
    pub fn net_stack(&self, costs: &CostModel) -> NetStack {
        let path = match self.kind {
            PlatformKind::Docker
            | PlatformKind::Gvisor
            | PlatformKind::Graphene
            | PlatformKind::ClearContainer => NetPath::NativeBridge { iptables_rules: 1 },
            PlatformKind::XenContainer | PlatformKind::XContainer => NetPath::SplitDriver {
                blanket: self.cloud.blanket(),
                iptables_rules: 1,
            },
            PlatformKind::Unikernel => NetPath::SplitDriver {
                blanket: self.cloud.blanket(),
                iptables_rules: 0,
            },
        };
        let stack = NetStack::new(self.backend, self.guest_config, path);
        // Interposition layers tax every kernel entry on the data path.
        match self.kind {
            PlatformKind::ClearContainer => {
                stack.with_entry_surcharge(costs.vmexit + costs.nested_vmexit_extra)
            }
            PlatformKind::Gvisor => stack.with_entry_surcharge(costs.ptrace_stop),
            _ => stack,
        }
    }

    /// Graphene's multi-process coordination tax: "processes use IPC
    /// calls to maintain the consistency of multiple LibOS instances, at a
    /// significant performance penalty" (§3.3). Zero elsewhere.
    pub fn multiprocess_ipc_cost(&self, costs: &CostModel) -> Nanos {
        match self.kind {
            PlatformKind::Graphene => {
                // A round trip through a host pipe plus marshalling.
                (costs.pipe_op + costs.context_switch_base) * 2 + costs.copy_bytes(4096)
            }
            _ => Nanos::ZERO,
        }
    }

    /// Applies the environment's CPU speed factor to a cost.
    pub fn environment_adjust(&self, n: Nanos) -> Nanos {
        n.scale(self.cloud.speed_factor())
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} on {}", self.name(), self.cloud.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xc_sim::fnv::{fnv1a_u64, FNV_OFFSET};

    fn c() -> CostModel {
        CostModel::skylake_cloud()
    }

    #[test]
    fn ten_configurations_on_gce_eight_on_ec2() {
        assert_eq!(
            Platform::cloud_configurations(CloudEnv::GoogleGce).len(),
            10
        );
        assert_eq!(Platform::cloud_configurations(CloudEnv::AmazonEc2).len(), 8);
    }

    #[test]
    fn figure4_syscall_ordering() {
        let costs = c();
        let cloud = CloudEnv::GoogleGce;
        let sc = |p: &Platform| p.syscall_cost(&costs).as_nanos();

        let docker = Platform::docker(cloud, true);
        let docker_un = Platform::docker(cloud, false);
        let xen = Platform::xen_container(cloud, true);
        let xc = Platform::x_container(cloud, true);
        let gv = Platform::gvisor(cloud, true);
        let cc = Platform::clear_container(cloud, true).unwrap();

        // X fastest, then Clear, then Docker-unpatched, Docker, Xen, gVisor.
        assert!(sc(&xc) < sc(&cc));
        assert!(sc(&cc) < sc(&docker_un));
        assert!(sc(&docker_un) < sc(&docker));
        assert!(sc(&docker) < sc(&xen));
        assert!(sc(&xen) < sc(&gv));

        // Magnitudes: X ≈ 25–35× Docker-patched; gVisor ≈ 7–9% of Docker.
        let x_ratio = sc(&docker) as f64 / sc(&xc) as f64;
        assert!((15.0..60.0).contains(&x_ratio), "x_ratio {x_ratio}");
        let gv_ratio = sc(&docker) as f64 / sc(&gv) as f64;
        assert!((0.04..0.15).contains(&gv_ratio), "gv_ratio {gv_ratio}");
    }

    #[test]
    fn meltdown_patch_leaves_x_and_clear_alone() {
        let costs = c();
        let cloud = CloudEnv::GoogleGce;
        assert_eq!(
            Platform::x_container(cloud, true).syscall_cost(&costs),
            Platform::x_container(cloud, false).syscall_cost(&costs)
        );
        assert_eq!(
            Platform::clear_container(cloud, true)
                .unwrap()
                .syscall_cost(&costs),
            Platform::clear_container(cloud, false)
                .unwrap()
                .syscall_cost(&costs)
        );
        // …but hits Docker and Xen-Containers.
        assert!(
            Platform::docker(cloud, true).syscall_cost(&costs)
                > Platform::docker(cloud, false).syscall_cost(&costs)
        );
        assert!(
            Platform::xen_container(cloud, true).syscall_cost(&costs)
                > Platform::xen_container(cloud, false).syscall_cost(&costs)
        );
    }

    #[test]
    fn abom_ablation_reverts_to_trap_path() {
        let costs = c();
        let on = Platform::x_container(CloudEnv::AmazonEc2, true);
        let off = Platform::x_container_no_abom(CloudEnv::AmazonEc2, true);
        assert!(off.syscall_cost(&costs) > on.syscall_cost(&costs) * 5);
        assert_eq!(off.syscall_cost(&costs), on.syscall_cost_trapped(&costs));
    }

    #[test]
    fn capability_matrix() {
        let cloud = CloudEnv::LocalCluster;
        let xc = Platform::x_container(cloud, true);
        assert!(xc.binary_compatible() && xc.supports_multiprocess() && xc.supports_multicore());
        let u = Platform::unikernel(cloud);
        assert!(!u.binary_compatible() && !u.supports_multiprocess() && !u.supports_multicore());
        let g = Platform::graphene(cloud);
        assert!(!g.binary_compatible() && g.supports_multiprocess());
        let gv = Platform::gvisor(cloud, true);
        assert!(gv.supports_multiprocess() && !gv.supports_multicore());
    }

    #[test]
    fn x_container_loses_context_switch_and_fork() {
        // §5.4: "X-Containers has noticeable overheads compared to Docker
        // in process creation and context switching".
        let costs = c();
        let cloud = CloudEnv::AmazonEc2;
        let docker = Platform::docker(cloud, true);
        let xc = Platform::x_container(cloud, true);
        assert!(xc.context_switch_cost(&costs, 4) > docker.context_switch_cost(&costs, 4));
        assert!(xc.fork_cost(&costs, 2_000) > docker.fork_cost(&costs, 2_000));
        // But wins exec, where loader syscalls dominate.
        assert!(xc.exec_cost(&costs, 600, 150) < docker.exec_cost(&costs, 600, 150));
    }

    #[test]
    fn clear_container_pays_nested_io() {
        let costs = c();
        let cc = Platform::clear_container(CloudEnv::GoogleGce, true).unwrap();
        let docker = Platform::docker(CloudEnv::GoogleGce, true);
        assert!(cc.event_entry_cost(&costs) > docker.event_entry_cost(&costs) * 5);
    }

    #[test]
    fn graphene_pays_ipc_for_multiprocess() {
        let costs = c();
        let g = Platform::graphene(CloudEnv::LocalCluster);
        assert!(g.multiprocess_ipc_cost(&costs) > Nanos::from_micros(2));
        let xc = Platform::x_container(CloudEnv::LocalCluster, true);
        assert_eq!(xc.multiprocess_ipc_cost(&costs), Nanos::ZERO);
    }

    #[test]
    fn costs_are_pinned() {
        // Every cost a harness derives from a platform, on every
        // constructor, cloud and patch state, folded to the last bit.
        let costs = c();
        let mut digest = FNV_OFFSET;
        for cloud in CloudEnv::ALL {
            let mut platforms = Platform::cloud_configurations(cloud);
            for patched in [true, false] {
                platforms.push(Platform::x_container_no_abom(cloud, patched));
            }
            platforms.push(Platform::graphene(cloud));
            platforms.push(Platform::unikernel(cloud));
            for p in &platforms {
                let net = p.net_stack(&costs);
                let mut fold = |n: Nanos| digest = fnv1a_u64(digest, n.as_nanos());
                fold(p.syscall_cost(&costs));
                fold(p.syscall_cost_trapped(&costs));
                fold(p.event_entry_cost(&costs));
                fold(p.context_switch_cost(&costs, 1));
                fold(p.context_switch_cost(&costs, 1_600));
                fold(p.fork_cost(&costs, 2_000));
                fold(p.exec_cost(&costs, 600, 150));
                fold(p.multiprocess_ipc_cost(&costs));
                for bytes in [64, 1_448, 64 * 1024] {
                    fold(net.send_cost(&costs, bytes));
                    fold(net.recv_cost(&costs, bytes));
                    fold(net.forward_cost(&costs, bytes));
                }
            }
        }
        assert_eq!(digest, 0x2e87_7f07_337a_1b59, "got {digest:#x}");
    }

    #[test]
    fn names_follow_figures() {
        assert_eq!(Platform::docker(CloudEnv::AmazonEc2, true).name(), "Docker");
        assert_eq!(
            Platform::docker(CloudEnv::AmazonEc2, false).name(),
            "Docker-unpatched"
        );
        assert_eq!(
            Platform::x_container(CloudEnv::GoogleGce, false).to_string(),
            "X-Container-unpatched on Google"
        );
    }
}
