//! Kernel deployment backends and their cost compositions.
//!
//! [`Backend`] captures where the (guest) Linux kernel sits relative to
//! the hardware privilege boundary, which determines what every
//! kernel-crossing operation costs. All platform comparisons in
//! `xc-runtimes` reduce to these compositions plus per-workload operation
//! counts.

use xc_sim::cost::CostModel;
use xc_sim::time::Nanos;
use xc_xen::abi::{XenAbi, USER_HOT_PAGES};

use crate::config::KernelConfig;

/// PTE updates batched per `mmu_update` hypercall (Linux's PV backend
/// batches aggressively).
pub const MMU_BATCH: u64 = 512;

/// Where the kernel runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Linux in ring 0 on hardware (Docker's host kernel).
    Native,
    /// Unmodified 64-bit Linux as a Xen PV guest (Xen-Container /
    /// LightVM): kernel isolated in its own address space, syscalls
    /// forwarded by the hypervisor (§4.1).
    XenPv,
    /// X-LibOS on the X-Kernel: kernel shares its processes' address
    /// space and privilege level (§4.2–4.3).
    XKernel,
}

impl Backend {
    /// The hypervisor ABI underneath, if any.
    pub fn abi(self) -> Option<XenAbi> {
        match self {
            Backend::Native => None,
            Backend::XenPv => Some(XenAbi::XenPv),
            Backend::XKernel => Some(XenAbi::XKernel),
        }
    }

    /// Dispatch cost of one syscall (excluding the syscall body's own
    /// work). `optimized` selects the ABOM function-call path, which only
    /// exists under [`Backend::XKernel`].
    ///
    /// The KPTI tax applies to every *hardware* privilege crossing, so an
    /// optimized X-Container syscall escapes it entirely — the paper's
    /// observation that "the Meltdown patch does not affect performance of
    /// X-Containers" (§5.4).
    pub fn syscall_cost(self, costs: &CostModel, config: &KernelConfig, optimized: bool) -> Nanos {
        match self {
            Backend::Native => costs.syscall_trap + config.kpti_tax(costs),
            Backend::XenPv => XenAbi::XenPv.forwarded_syscall_cost(costs) + config.kpti_tax(costs),
            Backend::XKernel => {
                if optimized {
                    XenAbi::XKernel.optimized_syscall_cost(costs)
                } else {
                    XenAbi::XKernel.forwarded_syscall_cost(costs) + config.kpti_tax(costs)
                }
            }
        }
    }

    /// Cost of taking one device/network event into the kernel (softirq
    /// entry or event-channel delivery).
    pub fn event_entry_cost(self, costs: &CostModel, config: &KernelConfig) -> Nanos {
        match self {
            Backend::Native => costs.softirq_entry + config.kpti_tax(costs),
            Backend::XenPv => {
                costs.softirq_entry
                    + XenAbi::XenPv.event_delivery_cost(costs)
                    + config.kpti_tax(costs)
            }
            Backend::XKernel => {
                // Delivered by the §4.2 user-mode emulation: no hardware
                // crossing, no KPTI tax.
                costs.softirq_entry + XenAbi::XKernel.event_delivery_cost(costs)
            }
        }
    }

    /// Cost of a context switch between two *processes* of this kernel,
    /// with `runnable` tasks on the runqueue.
    pub fn context_switch_cost(self, costs: &CostModel, runnable: u64) -> Nanos {
        let sched =
            costs.context_switch_base + costs.sched_per_runnable * runnable.saturating_sub(1);
        match self {
            Backend::Native => {
                sched + costs.page_table_switch + costs.tlb_flush_with_refill(USER_HOT_PAGES)
            }
            Backend::XenPv => sched + XenAbi::XenPv.process_switch_cost(costs),
            Backend::XKernel => sched + XenAbi::XKernel.process_switch_cost(costs),
        }
    }

    /// Cost of a switch between two *threads* of one process (no
    /// address-space change).
    pub fn thread_switch_cost(self, costs: &CostModel, runnable: u64) -> Nanos {
        costs.thread_switch + costs.sched_per_runnable * runnable.saturating_sub(1)
    }

    /// Cost of `fork()` for a process with `resident_pages` mapped pages.
    pub fn fork_cost(self, costs: &CostModel, resident_pages: u64) -> Nanos {
        match self {
            Backend::Native => costs.fork_base + costs.fork_per_page * resident_pages,
            Backend::XenPv | Backend::XKernel => {
                let abi = self.abi().expect("virtualized backend");
                costs.fork_base + abi.fork_page_table_cost(costs, resident_pages, MMU_BATCH)
            }
        }
    }

    /// Kernel-side cost of `execve()` of an image with `image_pages`
    /// pages: the exec itself plus mapping the image, validated by the
    /// hypervisor on the virtualized backends. The loader's syscalls are
    /// charged by the platform, at its own dispatch rate
    /// (`Platform::exec_cost`).
    pub fn exec_cost(self, costs: &CostModel, image_pages: u64) -> Nanos {
        let map_cost = match self {
            Backend::Native => costs.fork_per_page * image_pages,
            Backend::XenPv | Backend::XKernel => self
                .abi()
                .expect("virtualized backend")
                .fork_page_table_cost(costs, image_pages, MMU_BATCH),
        };
        costs.exec_base + map_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> (CostModel, KernelConfig, KernelConfig) {
        (
            CostModel::skylake_cloud(),
            KernelConfig::docker_default(),
            KernelConfig::xlibos_default(),
        )
    }

    #[test]
    fn syscall_cost_ordering_matches_figure4() {
        let (c, patched, xlibos) = env();
        let docker_patched = Backend::Native.syscall_cost(&c, &patched, false);
        let docker_unpatched =
            Backend::Native.syscall_cost(&c, &KernelConfig::docker_unpatched(), false);
        let xen_container = Backend::XenPv.syscall_cost(&c, &patched, false);
        let x_container = Backend::XKernel.syscall_cost(&c, &xlibos, true);

        // Figure 4's ordering: X ≫ Docker-unpatched > Docker-patched >
        // Xen-Container.
        assert!(x_container < docker_unpatched);
        assert!(docker_unpatched < docker_patched);
        assert!(docker_patched < xen_container);
        // And the headline magnitude: an optimized X-Container syscall is
        // more than an order of magnitude cheaper than patched native.
        assert!(docker_patched.as_nanos() > 20 * x_container.as_nanos());
    }

    #[test]
    fn meltdown_patch_does_not_affect_optimized_path() {
        let (c, _, _) = env();
        let mut patched_guest = KernelConfig::xlibos_default();
        patched_guest.kpti = true;
        let with = Backend::XKernel.syscall_cost(&c, &patched_guest, true);
        let without = Backend::XKernel.syscall_cost(&c, &KernelConfig::xlibos_default(), true);
        assert_eq!(with, without, "no hardware crossing, no KPTI tax");
    }

    #[test]
    fn only_the_optimized_xkernel_escapes_the_kpti_tax() {
        // Only the ABOM function call skips the hardware trap, so only it
        // escapes the KPTI tax (§5.4); every trap or bounce pays it.
        let c = CostModel::skylake_cloud();
        let mut patched = KernelConfig::xlibos_default();
        patched.kpti = true;
        let mut unpatched = patched.clone();
        unpatched.kpti = false;
        for (backend, optimized) in [
            (Backend::Native, false),
            (Backend::XenPv, false),
            (Backend::XKernel, true),
            (Backend::XKernel, false),
        ] {
            let tax = backend.syscall_cost(&c, &patched, optimized)
                - backend.syscall_cost(&c, &unpatched, optimized);
            let expected = if backend == Backend::XKernel && optimized {
                Nanos::ZERO
            } else {
                c.kpti_trap_extra
            };
            assert_eq!(tax, expected, "{backend:?} optimized={optimized}");
        }
    }

    #[test]
    fn unoptimized_xkernel_syscall_still_beats_pv() {
        let (c, patched, _) = env();
        let xk = Backend::XKernel.syscall_cost(&c, &patched, false);
        let pv = Backend::XenPv.syscall_cost(&c, &patched, false);
        assert!(xk < pv / 3);
    }

    #[test]
    fn context_switch_ordering_matches_figure5() {
        let c = CostModel::skylake_cloud();
        let native = Backend::Native.context_switch_cost(&c, 4);
        let xk = Backend::XKernel.context_switch_cost(&c, 4);
        let pv = Backend::XenPv.context_switch_cost(&c, 4);
        // "X-Containers has noticeable overheads compared to Docker in
        // process creation and context switching" (§5.4).
        assert!(native < xk);
        assert!(xk < pv);
    }

    #[test]
    fn runqueue_length_inflates_switches() {
        let c = CostModel::skylake_cloud();
        let short = Backend::Native.context_switch_cost(&c, 4);
        let long = Backend::Native.context_switch_cost(&c, 1600);
        assert!(
            long > short,
            "flat scheduling degrades with 4N tasks (Figure 8)"
        );
        assert_eq!(long - short, c.sched_per_runnable * (1600 - 4));
    }

    #[test]
    fn thread_switch_cheaper_than_process_switch() {
        let c = CostModel::skylake_cloud();
        for b in [Backend::Native, Backend::XenPv, Backend::XKernel] {
            assert!(b.thread_switch_cost(&c, 4) < b.context_switch_cost(&c, 4));
        }
    }

    #[test]
    fn fork_pays_hypervisor_validation() {
        let c = CostModel::skylake_cloud();
        let pages = 2_000;
        let native = Backend::Native.fork_cost(&c, pages);
        let xk = Backend::XKernel.fork_cost(&c, pages);
        assert!(xk > native, "PT ops must go through the X-Kernel (§5.4)");
        assert!(xk < native * 4, "batching keeps it in the same ballpark");
    }

    #[test]
    fn event_entry_kpti_asymmetry() {
        let (c, patched, xlibos) = env();
        let native_patched = Backend::Native.event_entry_cost(&c, &patched);
        let native_unpatched =
            Backend::Native.event_entry_cost(&c, &KernelConfig::docker_unpatched());
        let xk = Backend::XKernel.event_entry_cost(&c, &xlibos);
        assert!(native_patched > native_unpatched);
        assert!(xk < Backend::XenPv.event_entry_cost(&c, &patched));
    }
}
