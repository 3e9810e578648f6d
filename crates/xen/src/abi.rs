//! The Xen-PV vs X-Kernel ABI split.
//!
//! §4.1 explains why classic Xen PV is slow on x86-64: without segment
//! protection the guest kernel must live in a separate address space, so
//! **every syscall** is forwarded by the hypervisor as a virtual exception
//! and pays two page-table switches and TLB flushes. §4.2–4.3 describe the
//! X-Kernel changes: guest kernel mapped into every process at the same
//! privilege level (no page-table switch on syscalls), `iret`/`sysret`
//! emulated in user mode, interrupts delivered without trapping, and
//! global-bit kernel mappings that survive intra-container context
//! switches.
//!
//! [`XenAbi`] encodes exactly those differences as cost compositions over
//! the shared [`CostModel`]. Everything `xc-runtimes` reports for
//! Xen-Containers vs X-Containers flows through these methods.

use xc_sim::cost::CostModel;
use xc_sim::time::Nanos;

/// Typical hot TLB working set of the kernel's syscall/interrupt paths,
/// in pages. Used when a flush forces a refill.
pub const KERNEL_HOT_PAGES: u64 = 24;

/// Typical hot TLB working set of a user process, in pages.
pub const USER_HOT_PAGES: u64 = 40;

/// Hypercalls a paravirtual guest issues per process context switch:
/// install the new page-table base, switch the registered kernel stack,
/// update the fs/gs segment bases, and flush queued VA updates. (Linux's
/// PV `__switch_to` really does issue a handful of hypercalls per
/// switch — the structural reason §5.4's context-switch panel favours
/// Docker.)
pub const SWITCH_HYPERCALLS: u64 = 6;

/// Which hypervisor ABI a guest runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum XenAbi {
    /// Unmodified Xen paravirtualization (the Xen-Container / LightVM
    /// baseline): guest kernel isolated in its own address space.
    XenPv,
    /// The modified ABI of the paper: guest kernel (X-LibOS) shares the
    /// address space and privilege level of its processes.
    XKernel,
}

impl XenAbi {
    /// Cost of one syscall that reaches the guest kernel via the
    /// hypervisor trap path (always the case for [`XenAbi::XenPv`]; for
    /// [`XenAbi::XKernel`] this is the *unpatched* path before ABOM
    /// rewrites the site).
    ///
    /// PV pays: trap into Xen, virtual-exception bounce with a page-table
    /// switch and TLB flush into the guest kernel, then the `iret`
    /// hypercall and a second switch/flush back to the process.
    ///
    /// X-Kernel pays: trap into the X-Kernel, a direct transfer to
    /// X-LibOS in the *same* address space, and a user-mode return.
    pub fn forwarded_syscall_cost(self, costs: &CostModel) -> Nanos {
        match self {
            XenAbi::XenPv => {
                costs.syscall_trap
                    + costs.upcall_delivery
                    + costs.page_table_switch
                    + costs.tlb_flush_with_refill(KERNEL_HOT_PAGES)
                    + costs.iret_hypercall
                    + costs.page_table_switch
                    + costs.tlb_flush_with_refill(USER_HOT_PAGES)
            }
            XenAbi::XKernel => costs.syscall_trap + costs.vsyscall_dispatch + costs.iret_userspace,
        }
    }

    /// Cost of one syscall after ABOM optimization: a function call
    /// through the vsyscall table. Only meaningful under
    /// [`XenAbi::XKernel`]; PV guests cannot express it and fall back to
    /// the forwarded path.
    pub fn optimized_syscall_cost(self, costs: &CostModel) -> Nanos {
        match self {
            XenAbi::XenPv => self.forwarded_syscall_cost(costs),
            XenAbi::XKernel => costs.function_call + costs.vsyscall_dispatch,
        }
    }

    /// Cost of delivering one pending event-channel event into the guest
    /// (receive side; the sender's hypercall is charged separately).
    ///
    /// PV guests issue a hypercall to have events delivered and return
    /// via the `iret` hypercall; X-LibOS "can emulate the interrupt stack
    /// frame when it sees any pending events and jump directly into
    /// interrupt handlers without trapping into the X-Kernel" (§4.2).
    pub fn event_delivery_cost(self, costs: &CostModel) -> Nanos {
        match self {
            XenAbi::XenPv => costs.hypercall + costs.upcall_delivery + costs.iret_hypercall,
            XenAbi::XKernel => costs.vsyscall_dispatch + costs.iret_userspace,
        }
    }

    /// Cost of switching between two processes of the *same* guest.
    ///
    /// Both ABIs must install the new page-table base through the
    /// hypervisor ("process creation and context switches involve page
    /// table operations, which must be done in the X-Kernel", §5.4). The
    /// difference is the TLB: PV disables the global bit, so the whole
    /// working set refills; the X-Kernel keeps X-LibOS mappings global, so
    /// only the user share refills (§4.3).
    pub fn process_switch_cost(self, costs: &CostModel) -> Nanos {
        let base = costs.hypercall * SWITCH_HYPERCALLS + costs.page_table_switch;
        match self {
            XenAbi::XenPv => base + costs.tlb_flush_with_refill(KERNEL_HOT_PAGES + USER_HOT_PAGES),
            XenAbi::XKernel => base + costs.tlb_flush_with_refill(USER_HOT_PAGES),
        }
    }

    /// Cost of the page-table side of `fork()`: `pages` PTE updates
    /// validated by the hypervisor in batches of `batch` entries.
    pub fn fork_page_table_cost(self, costs: &CostModel, pages: u64, batch: u64) -> Nanos {
        let batch = batch.max(1);
        let full_batches = pages / batch;
        let remainder = pages % batch;
        let mut total = costs.mmu_update_batch(batch) * full_batches;
        if remainder > 0 {
            total += costs.mmu_update_batch(remainder);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs() -> CostModel {
        CostModel::skylake_cloud()
    }

    #[test]
    fn pv_syscall_forwarding_is_expensive() {
        let c = costs();
        let pv = XenAbi::XenPv.forwarded_syscall_cost(&c);
        let xk = XenAbi::XKernel.forwarded_syscall_cost(&c);
        // The PV bounce is the reason §4.1 gives for 64-bit PV being slow:
        // it should be several times the X-Kernel bounce.
        assert!(pv > xk * 4, "pv={pv} xk={xk}");
        // And the PV bounce exceeds a native trap by far.
        assert!(pv > c.syscall_trap * 5);
    }

    #[test]
    fn optimized_syscall_beats_everything() {
        let c = costs();
        let opt = XenAbi::XKernel.optimized_syscall_cost(&c);
        assert!(opt < XenAbi::XKernel.forwarded_syscall_cost(&c));
        assert!(opt < c.syscall_trap);
        // PV cannot optimize.
        assert_eq!(
            XenAbi::XenPv.optimized_syscall_cost(&c),
            XenAbi::XenPv.forwarded_syscall_cost(&c)
        );
    }

    #[test]
    fn global_bit_speeds_up_process_switches() {
        let c = costs();
        let pv = XenAbi::XenPv.process_switch_cost(&c);
        let xk = XenAbi::XKernel.process_switch_cost(&c);
        assert!(xk < pv);
        // The saving is exactly the kernel working-set refill.
        assert_eq!(pv - xk, c.tlb_refill_per_page * KERNEL_HOT_PAGES);
    }

    #[test]
    fn event_delivery_avoids_hypercalls_on_xkernel() {
        let c = costs();
        let pv = XenAbi::XenPv.event_delivery_cost(&c);
        let xk = XenAbi::XKernel.event_delivery_cost(&c);
        assert!(xk < pv / 5, "pv={pv} xk={xk}");
    }

    #[test]
    fn fork_batching_amortizes() {
        let c = costs();
        let abi = XenAbi::XKernel;
        let batched = abi.fork_page_table_cost(&c, 1024, 512);
        let unbatched = abi.fork_page_table_cost(&c, 1024, 1);
        assert!(batched < unbatched);
        // Exact composition: two full batches.
        assert_eq!(batched, c.mmu_update_batch(512) * 2);
        // Remainder handling.
        assert_eq!(
            abi.fork_page_table_cost(&c, 513, 512),
            c.mmu_update_batch(512) + c.mmu_update_batch(1)
        );
        // Zero pages cost nothing.
        assert_eq!(abi.fork_page_table_cost(&c, 0, 512), Nanos::ZERO);
    }
}
