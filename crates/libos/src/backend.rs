//! Kernel deployment backends and their cost compositions.
//!
//! [`Backend`] captures where the (guest) Linux kernel sits relative to
//! the hardware privilege boundary, which determines what every
//! kernel-crossing operation costs. §4.1 explains why classic Xen PV is
//! slow on x86-64: without segment protection the guest kernel must live
//! in a separate address space, so **every syscall** is forwarded by the
//! hypervisor as a virtual exception and pays two page-table switches and
//! TLB flushes. §4.2–4.3 describe the X-Kernel changes: guest kernel
//! mapped into every process at the same privilege level (no page-table
//! switch on syscalls), `iret`/`sysret` emulated in user mode, interrupts
//! delivered without trapping, and global-bit kernel mappings that
//! survive intra-container context switches. Each method below writes
//! those differences as sums over the shared [`CostModel`]; all platform
//! comparisons in `xc-runtimes` reduce to these sums plus per-workload
//! operation counts.

use xc_sim::cost::CostModel;
use xc_sim::time::Nanos;
use xc_xen::tlb::{KERNEL_HOT_PAGES, USER_HOT_PAGES};

use crate::config::KernelConfig;

/// PTE updates batched per `mmu_update` hypercall (Linux's PV backend
/// batches aggressively).
pub const MMU_BATCH: u64 = 512;

/// Hypercalls a paravirtual guest issues per process context switch:
/// install the new page-table base, switch the registered kernel stack,
/// update the fs/gs segment bases, and flush queued VA updates. (Linux's
/// PV `__switch_to` really does issue a handful of hypercalls per
/// switch — the structural reason §5.4's context-switch panel favours
/// Docker.)
pub const SWITCH_HYPERCALLS: u64 = 6;

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
    /// Dispatch cost of one syscall (excluding the syscall body's own
    /// work). `optimized` selects the ABOM function-call path, which only
    /// exists under [`Backend::XKernel`]; PV guests cannot express it and
    /// take the forwarded path.
    ///
    /// PV pays: trap into Xen, virtual-exception bounce with a page-table
    /// switch and TLB flush into the guest kernel, then the `iret`
    /// hypercall and a second switch/flush back to the process. The
    /// X-Kernel pays: trap, a direct transfer to X-LibOS in the *same*
    /// address space, and a user-mode return.
    ///
    /// The KPTI tax applies to every *hardware* privilege crossing, so an
    /// optimized X-Container syscall escapes it entirely — the paper's
    /// observation that "the Meltdown patch does not affect performance of
    /// X-Containers" (§5.4).
    pub fn syscall_cost(self, costs: &CostModel, config: &KernelConfig, optimized: bool) -> Nanos {
        match self {
            Backend::Native => costs.syscall_trap + config.kpti_tax(costs),
            Backend::XenPv => {
                costs.syscall_trap
                    + costs.upcall_delivery
                    + costs.page_table_switch
                    + costs.tlb_flush_with_refill(KERNEL_HOT_PAGES)
                    + costs.iret_hypercall
                    + costs.page_table_switch
                    + costs.tlb_flush_with_refill(USER_HOT_PAGES)
                    + config.kpti_tax(costs)
            }
            Backend::XKernel if optimized => costs.function_call + costs.vsyscall_dispatch,
            Backend::XKernel => {
                costs.syscall_trap
                    + costs.vsyscall_dispatch
                    + costs.iret_userspace
                    + config.kpti_tax(costs)
            }
        }
    }

    /// Cost of taking one device/network event into the kernel (softirq
    /// entry or event-channel delivery; the sender's hypercall is charged
    /// separately).
    ///
    /// PV guests issue a hypercall to have events delivered and return
    /// via the `iret` hypercall; X-LibOS "can emulate the interrupt stack
    /// frame when it sees any pending events and jump directly into
    /// interrupt handlers without trapping into the X-Kernel" (§4.2), so
    /// it crosses no hardware boundary and pays no KPTI tax.
    pub fn event_entry_cost(self, costs: &CostModel, config: &KernelConfig) -> Nanos {
        match self {
            Backend::Native => costs.softirq_entry + config.kpti_tax(costs),
            Backend::XenPv => {
                costs.softirq_entry
                    + costs.hypercall
                    + costs.upcall_delivery
                    + costs.iret_hypercall
                    + config.kpti_tax(costs)
            }
            Backend::XKernel => {
                costs.softirq_entry + costs.vsyscall_dispatch + costs.iret_userspace
            }
        }
    }

    /// The address-space share of a switch between two *processes* of
    /// this kernel: the page-table install and the TLB refill.
    ///
    /// Both virtualized backends must install the new page-table base
    /// through the hypervisor ("process creation and context switches
    /// involve page table operations, which must be done in the
    /// X-Kernel", §5.4). The difference is the TLB: PV disables the
    /// global bit, so the whole working set refills; the X-Kernel keeps
    /// X-LibOS mappings global, so only the user share refills (§4.3), as
    /// on native Linux.
    pub fn process_switch_cost(self, costs: &CostModel) -> Nanos {
        let (hypercalls, refilled_pages) = match self {
            Backend::Native => (0, USER_HOT_PAGES),
            Backend::XenPv => (SWITCH_HYPERCALLS, KERNEL_HOT_PAGES + USER_HOT_PAGES),
            Backend::XKernel => (SWITCH_HYPERCALLS, USER_HOT_PAGES),
        };
        costs.hypercall * hypercalls
            + costs.page_table_switch
            + costs.tlb_flush_with_refill(refilled_pages)
    }

    /// Cost of a context switch between two *processes* of this kernel,
    /// with `runnable` tasks on the runqueue: the scheduler's pick plus
    /// [`Backend::process_switch_cost`].
    pub fn context_switch_cost(self, costs: &CostModel, runnable: u64) -> Nanos {
        costs.context_switch_base
            + costs.sched_per_runnable * runnable.saturating_sub(1)
            + self.process_switch_cost(costs)
    }

    /// Cost of `fork()` for a process with `resident_pages` mapped pages.
    pub fn fork_cost(self, costs: &CostModel, resident_pages: u64) -> Nanos {
        costs.fork_base + self.page_table_cost(costs, resident_pages)
    }

    /// Kernel-side cost of `execve()` of an image with `image_pages`
    /// pages: the exec itself plus mapping the image. The loader's
    /// syscalls are charged by the platform, at its own dispatch rate
    /// (`Platform::exec_cost`).
    pub fn exec_cost(self, costs: &CostModel, image_pages: u64) -> Nanos {
        costs.exec_base + self.page_table_cost(costs, image_pages)
    }

    /// Cost of writing `pages` PTEs: directly on native Linux, validated
    /// by the hypervisor in `mmu_update` batches of [`MMU_BATCH`] entries
    /// on the virtualized backends.
    fn page_table_cost(self, costs: &CostModel, pages: u64) -> Nanos {
        match self {
            Backend::Native => costs.fork_per_page * pages,
            Backend::XenPv | Backend::XKernel => {
                let tail = match pages % MMU_BATCH {
                    0 => Nanos::ZERO,
                    rest => costs.mmu_update_batch(rest),
                };
                costs.mmu_update_batch(MMU_BATCH) * (pages / MMU_BATCH) + tail
            }
        }
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
        let mut unpatched = patched;
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
    fn pv_syscall_forwarding_is_expensive() {
        let c = CostModel::skylake_cloud();
        let unpatched = KernelConfig::docker_unpatched();
        let pv = Backend::XenPv.syscall_cost(&c, &unpatched, false);
        let xk = Backend::XKernel.syscall_cost(&c, &unpatched, false);
        // The PV bounce is the reason §4.1 gives for 64-bit PV being slow:
        // it should be several times the X-Kernel bounce.
        assert!(pv > xk * 4, "pv={pv} xk={xk}");
        // And the PV bounce exceeds a native trap by far.
        assert!(pv > c.syscall_trap * 5);
    }

    #[test]
    fn optimized_syscall_beats_everything() {
        let c = CostModel::skylake_cloud();
        let unpatched = KernelConfig::docker_unpatched();
        let opt = Backend::XKernel.syscall_cost(&c, &unpatched, true);
        assert!(opt < Backend::XKernel.syscall_cost(&c, &unpatched, false));
        assert!(opt < c.syscall_trap);
        // PV cannot optimize.
        assert_eq!(
            Backend::XenPv.syscall_cost(&c, &unpatched, true),
            Backend::XenPv.syscall_cost(&c, &unpatched, false)
        );
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
    fn global_bit_speeds_up_process_switches() {
        let c = CostModel::skylake_cloud();
        let pv = Backend::XenPv.process_switch_cost(&c);
        let xk = Backend::XKernel.process_switch_cost(&c);
        assert!(xk < pv);
        // The saving is exactly the kernel working-set refill.
        assert_eq!(pv - xk, c.tlb_refill_per_page * KERNEL_HOT_PAGES);
    }

    #[test]
    fn fork_batching_amortizes() {
        let c = CostModel::skylake_cloud();
        let xk = Backend::XKernel;
        // Exact composition: two full batches.
        let batched = xk.fork_cost(&c, 1024);
        assert_eq!(batched, c.fork_base + c.mmu_update_batch(MMU_BATCH) * 2);
        assert!(batched < c.fork_base + c.mmu_update_batch(1) * 1024);
        // Remainder handling.
        assert_eq!(
            xk.fork_cost(&c, 513),
            c.fork_base + c.mmu_update_batch(MMU_BATCH) + c.mmu_update_batch(1)
        );
        // Zero pages add nothing to the base.
        assert_eq!(xk.fork_cost(&c, 0), c.fork_base);
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

    #[test]
    fn event_delivery_avoids_hypercalls_on_xkernel() {
        let c = CostModel::skylake_cloud();
        let unpatched = KernelConfig::docker_unpatched();
        // The delivery share: what each backend adds to the softirq entry.
        let pv = Backend::XenPv.event_entry_cost(&c, &unpatched) - c.softirq_entry;
        let xk = Backend::XKernel.event_entry_cost(&c, &unpatched) - c.softirq_entry;
        assert!(xk < pv / 5, "pv={pv} xk={xk}");
    }
}
