//! Primitive cost model.
//!
//! Every container architecture in the reproduction is *composed* from the
//! primitive operations below — a syscall trap, a hypercall, a page-table
//! switch, a TLB flush, a ptrace stop, a VM exit, … The per-workload numbers
//! in the paper's figures then emerge from **how many of each primitive every
//! architecture executes**, which is decided by the models in `xc-xen`,
//! `xc-libos` and `xc-runtimes`, not by per-figure constants.
//!
//! Default magnitudes are taken from public measurements of Skylake-era Xeon
//! servers (lmbench-style microbenchmarks, the KPTI performance litigation of
//! 2018, Xen and KVM transition-cost studies). They are inputs to the model;
//! see `DESIGN.md` §1 for the measured-vs-asserted boundary. Every field
//! is public, so a variant model is [`CostModel::skylake_cloud`] with
//! fields reassigned; the harnesses all price against the default.

use std::fmt;

use crate::time::Nanos;

macro_rules! cost_model {
    (
        $(
            $(#[$meta:meta])*
            $field:ident : $default:expr
        ),* $(,)?
    ) => {
        /// Primitive operation costs, in simulated nanoseconds.
        ///
        /// Construct via [`CostModel::skylake_cloud`] (the calibrated
        /// default) and reassign fields to customize.
        ///
        /// # Example
        ///
        /// ```
        /// use xc_sim::cost::CostModel;
        /// use xc_sim::time::Nanos;
        ///
        /// let mut costs = CostModel::skylake_cloud();
        /// costs.kpti_trap_extra = Nanos::ZERO; // pre-Meltdown world
        /// assert_ne!(costs, CostModel::skylake_cloud());
        /// ```
        #[derive(Debug, Clone, PartialEq, Eq)]
        #[non_exhaustive]
        pub struct CostModel {
            $(
                $(#[$meta])*
                pub $field: Nanos,
            )*
        }

        impl CostModel {
            /// The calibrated default model: a dual-socket Skylake-era Xeon
            /// cloud server (the paper used EC2 c4.2xlarge, GCE custom-8, and
            /// E5-2690 local machines).
            pub fn skylake_cloud() -> Self {
                CostModel {
                    $($field: Nanos::from_nanos($default),)*
                }
            }

            /// Iterates over `(name, value)` pairs — used by the report
            /// harnesses to dump the model alongside results.
            pub fn entries(&self) -> Vec<(&'static str, Nanos)> {
                vec![$((stringify!($field), self.$field),)*]
            }
        }
    };
}

cost_model! {
    // ---- CPU / syscall path -------------------------------------------

    /// A user-space `call`/`ret` pair through the vsyscall entry table —
    /// what an ABOM-patched "system call" costs before the handler runs
    /// (§4.4 of the paper).
    function_call: 2,
    /// `syscall`/`sysret` round trip into ring 0 and back, with register
    /// save/restore but *no* KPTI and no filters. lmbench "simple syscall"
    /// on Skylake ≈ 40–50 ns.
    syscall_trap: 45,
    /// Per-syscall cost of the default Docker seccomp-BPF filter plus
    /// audit hooks. Published seccomp overhead measurements put the
    /// default profile at 60–120 ns per syscall.
    seccomp_filter: 90,
    /// Extra cost per kernel entry/exit pair under the Meltdown/KPTI page
    /// table isolation patch (CR3 write ×2 plus TLB effects; EC2-era Xeons
    /// without PCID passthrough sit at the expensive end).
    kpti_trap_extra: 420,
    /// X-LibOS syscall handler dispatch overhead once reached via function
    /// call: entry-table indirection, stack switch to the kernel stack
    /// (§4.3 — still required with multiple processes), return fix-ups.
    vsyscall_dispatch: 10,
    /// Kernel-side work of a trivial syscall body (`getpid`-class).
    syscall_body: 5,
    /// User-space loop overhead per benchmark iteration (UnixBench-style
    /// harness around the measured calls).
    loop_iteration: 2,

    // ---- Virtualization primitives ------------------------------------

    /// Hypercall into the (X-)Kernel and back, including argument
    /// validation. Xen PV hypercalls measure 150–300 ns.
    hypercall: 250,
    /// Hardware VM exit + entry round trip (single-level virtualization).
    vmexit: 1_200,
    /// *Additional* cost when a VM exit happens under nested
    /// virtualization (L2→L0→L1 bouncing; Google documents the penalty as
    /// large — this makes a nested exit ≈ 8 µs total).
    nested_vmexit_extra: 6_800,
    /// One ptrace syscall-stop round trip: two scheduler wake-ups, signal
    /// delivery, and the tracer's own syscalls (gVisor's ptrace platform
    /// pays this *twice* per sandboxed syscall entry/exit pair; the 5–6 µs
    /// figure matches gVisor's published "structural cost" numbers).
    ptrace_stop: 2_900,
    /// Sending an event through a Xen event channel (hypercall + bitmap
    /// update).
    event_channel_send: 250,
    /// Delivering a pending event upcall into a PV guest (bounce frame
    /// setup and entry into the guest handler).
    upcall_delivery: 400,
    /// `iret` performed via the Xen PV hypercall (unmodified PV ABI,
    /// needed to switch privilege levels atomically — §4.2).
    iret_hypercall: 280,
    /// `iret` emulated entirely in user mode by X-LibOS (push registers to
    /// the kernel stack, `ret`) — the X-Container replacement for the
    /// hypercall (§4.2).
    iret_userspace: 12,

    // ---- Memory management --------------------------------------------

    /// Bare CR3 write (page-table switch) without a full flush (global
    /// pages / PCID retained).
    page_table_switch: 150,
    /// Full TLB flush (CR3 write discarding all non-global entries),
    /// *excluding* refill; refill is charged per page below.
    tlb_flush_full: 220,
    /// Amortized page-walk cost to refill one hot TLB entry after a flush.
    tlb_refill_per_page: 22,
    /// Validating and applying one page-table entry update via the
    /// hypervisor (`mmu_update`); batched updates pay one
    /// [`hypercall`](CostModel::hypercall) plus this per entry.
    pte_update: 35,
    /// Copying one KiB of memory (≈ 30 GB/s effective single-threaded
    /// copy bandwidth).
    memcpy_per_kb: 33,

    // ---- Scheduling / process management ------------------------------

    /// Fixed cost of a scheduler decision plus state save/restore for a
    /// kernel-level context switch (excluding page-table effects).
    context_switch_base: 950,
    /// Additional scheduler cost per runnable task on the runqueue beyond
    /// the first (cache pressure on the runqueue structures; this is what
    /// makes flat scheduling of 4N processes degrade faster than
    /// hierarchical N×4 scheduling in Figure 8).
    sched_per_runnable: 18,
    /// Switching between threads of one process (no address-space change).
    thread_switch: 600,
    /// `fork()` fixed cost: task struct, descriptor table, accounting.
    fork_base: 38_000,
    /// Per resident page cost in `fork()` for copy-on-write page-table
    /// setup (one PTE write; under PV this routes through `mmu_update`).
    fork_per_page: 9,
    /// `execve()` fixed cost beyond its constituent syscalls: binary
    /// parsing, mm teardown/rebuild.
    exec_base: 180_000,
    /// Process teardown (exit + wait reaping).
    process_teardown: 30_000,

    // ---- Files / IPC ---------------------------------------------------

    /// VFS layer traversal per file syscall (dentry/inode lookups, fd
    /// table).
    vfs_op: 140,
    /// Reading/writing one KiB that hits the page cache (index lookup +
    /// copy).
    page_cache_per_kb: 45,
    /// Pipe buffer bookkeeping per read/write beyond the data copy.
    pipe_op: 120,

    // ---- Network -------------------------------------------------------

    /// Kernel TCP/IP processing of one segment (one direction, native
    /// stack).
    tcp_segment: 1_500,
    /// Softirq / interrupt entry for one NIC event (this is a kernel
    /// entry: KPTI taxes it when the patch is on).
    softirq_entry: 400,
    /// Traversing one iptables NAT rule set (the paper exposes all
    /// cloud-hosted servers via iptables port forwarding).
    iptables_nat: 300,
    /// One software bridge / veth hop (Docker bridge networking).
    bridge_hop: 250,
    /// Copying one KiB between front-end and back-end driver domains via
    /// Xen grant copy.
    grant_copy_per_kb: 90,
    /// Notifying the peer ring of a split-driver transfer (event channel +
    /// ring bookkeeping), charged per batch of segments.
    ring_notify: 350,
    /// One-way wire + NIC latency between two VMs in the same cloud zone.
    wire_latency: 28_000,
    /// NIC DMA + descriptor processing per KiB.
    nic_per_kb: 28,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::skylake_cloud()
    }
}

impl fmt::Display for CostModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CostModel:")?;
        for (name, value) in self.entries() {
            writeln!(f, "  {name:<22} {value}")?;
        }
        Ok(())
    }
}

impl CostModel {
    /// Cost of a full TLB flush followed by refilling `hot_pages` entries.
    ///
    /// This is the quantity the X-Container global-bit optimization (§4.3)
    /// avoids for the kernel's share of the working set.
    #[inline]
    pub fn tlb_flush_with_refill(&self, hot_pages: u64) -> Nanos {
        self.tlb_flush_full + self.tlb_refill_per_page * hot_pages
    }

    /// Cost of one batched `mmu_update` hypercall applying `entries` PTE
    /// updates.
    #[inline]
    pub fn mmu_update_batch(&self, entries: u64) -> Nanos {
        self.hypercall + self.pte_update * entries
    }

    /// Cost of copying `bytes` through `memcpy`.
    #[inline]
    pub fn copy_bytes(&self, bytes: u64) -> Nanos {
        // Round up to whole KiB to keep integer math; sub-KiB copies are
        // dominated by fixed syscall costs anyway.
        self.memcpy_per_kb * bytes.div_ceil(1024)
    }

    /// Cost of grant-copying `bytes` across a split-driver boundary.
    #[inline]
    pub fn grant_copy_bytes(&self, bytes: u64) -> Nanos {
        self.grant_copy_per_kb * bytes.div_ceil(1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_skylake() {
        assert_eq!(CostModel::default(), CostModel::skylake_cloud());
    }

    #[test]
    fn ordering_invariants() {
        // The architectural story of the paper depends on these orderings;
        // guard them so calibration changes cannot silently invert them.
        let m = CostModel::skylake_cloud();
        assert!(
            m.function_call < m.syscall_trap,
            "function call must beat trap"
        );
        assert!(m.syscall_trap < m.hypercall.saturating_add(m.syscall_trap));
        assert!(
            m.iret_userspace < m.iret_hypercall,
            "usermode iret is the point of §4.2"
        );
        assert!(m.vmexit < m.vmexit + m.nested_vmexit_extra);
        assert!(
            m.ptrace_stop > m.syscall_trap,
            "ptrace interception dominates gVisor"
        );
        assert!(m.thread_switch < m.context_switch_base + m.page_table_switch);
    }

    #[test]
    fn composite_helpers() {
        let m = CostModel::skylake_cloud();
        assert_eq!(
            m.tlb_flush_with_refill(10),
            m.tlb_flush_full + m.tlb_refill_per_page * 10
        );
        assert_eq!(m.mmu_update_batch(0), m.hypercall);
        assert_eq!(m.copy_bytes(1), m.memcpy_per_kb);
        assert_eq!(m.copy_bytes(1024), m.memcpy_per_kb);
        assert_eq!(m.copy_bytes(1025), m.memcpy_per_kb * 2);
        assert_eq!(m.grant_copy_bytes(4096), m.grant_copy_per_kb * 4);
    }

    #[test]
    fn entries_lists_all_fields() {
        let m = CostModel::skylake_cloud();
        let entries = m.entries();
        assert!(entries.len() > 30, "expected full field listing");
        assert!(entries.iter().any(|(n, _)| *n == "syscall_trap"));
        assert!(entries.iter().any(|(n, _)| *n == "grant_copy_per_kb"));
    }

    #[test]
    fn display_contains_fields() {
        let text = CostModel::skylake_cloud().to_string();
        assert!(text.contains("syscall_trap"));
        assert!(text.contains("kpti_trap_extra"));
    }
}
