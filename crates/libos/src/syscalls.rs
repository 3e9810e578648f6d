//! The x86-64 Linux syscall table (the slice the workloads exercise).
//!
//! Binary compatibility (§2.3) means *numbers* are the interface: ABOM
//! bakes them into vsyscall entries and the Table 1 profiles distribute
//! dynamic calls over them. This module gives the numbers names so
//! profiles and tests read like strace output instead of integer soup,
//! and provides the per-domain [`DispatchTable`] that resolves every
//! number's dispatch route once per kernel instead of on every syscall.

use crate::backend::Backend;

/// `read` — the Figure 2 case-1 example.
pub const SYS_READ: u64 = 0;
/// `write`.
pub const SYS_WRITE: u64 = 1;
/// `open`.
pub const SYS_OPEN: u64 = 2;
/// `close`.
pub const SYS_CLOSE: u64 = 3;
/// `stat`.
pub const SYS_STAT: u64 = 4;
/// `fstat`.
pub const SYS_FSTAT: u64 = 5;
/// `lseek`.
pub const SYS_LSEEK: u64 = 8;
/// `mmap`.
pub const SYS_MMAP: u64 = 9;
/// `mprotect`.
pub const SYS_MPROTECT: u64 = 10;
/// `munmap`.
pub const SYS_MUNMAP: u64 = 11;
/// `brk`.
pub const SYS_BRK: u64 = 12;
/// `rt_sigreturn` — `__restore_rt`, the Figure 2 9-byte example.
pub const SYS_RT_SIGRETURN: u64 = 15;
/// `writev`.
pub const SYS_WRITEV: u64 = 20;
/// `access`.
pub const SYS_ACCESS: u64 = 21;
/// `dup` — part of the UnixBench System Call loop.
pub const SYS_DUP: u64 = 32;
/// `nanosleep`.
pub const SYS_NANOSLEEP: u64 = 35;
/// `getpid` — part of the UnixBench System Call loop.
pub const SYS_GETPID: u64 = 39;
/// `sendfile`.
pub const SYS_SENDFILE: u64 = 40;
/// `socket`.
pub const SYS_SOCKET: u64 = 41;
/// `accept`.
pub const SYS_ACCEPT: u64 = 43;
/// `sendto`.
pub const SYS_SENDTO: u64 = 44;
/// `recvfrom`.
pub const SYS_RECVFROM: u64 = 45;
/// `fork`.
pub const SYS_FORK: u64 = 57;
/// `execve`.
pub const SYS_EXECVE: u64 = 59;
/// `exit`.
pub const SYS_EXIT: u64 = 60;
/// `umask` — part of the UnixBench System Call loop.
pub const SYS_UMASK: u64 = 95;
/// `getuid` — part of the UnixBench System Call loop.
pub const SYS_GETUID: u64 = 102;
/// `futex` — the cancellable-wrapper staple.
pub const SYS_FUTEX: u64 = 202;
/// `epoll_wait`.
pub const SYS_EPOLL_WAIT: u64 = 232;
/// `openat`.
pub const SYS_OPENAT: u64 = 257;
/// `accept4`.
pub const SYS_ACCEPT4: u64 = 288;
/// `epoll_pwait`.
pub const SYS_EPOLL_PWAIT: u64 = 281;

/// Name for a syscall number (the subset this workspace uses), or
/// `None` for numbers outside it.
pub fn name(nr: u64) -> Option<&'static str> {
    Some(match nr {
        SYS_READ => "read",
        SYS_WRITE => "write",
        SYS_OPEN => "open",
        SYS_CLOSE => "close",
        SYS_STAT => "stat",
        SYS_FSTAT => "fstat",
        SYS_LSEEK => "lseek",
        SYS_MMAP => "mmap",
        SYS_MPROTECT => "mprotect",
        SYS_MUNMAP => "munmap",
        SYS_BRK => "brk",
        SYS_RT_SIGRETURN => "rt_sigreturn",
        SYS_WRITEV => "writev",
        SYS_ACCESS => "access",
        SYS_DUP => "dup",
        SYS_NANOSLEEP => "nanosleep",
        SYS_GETPID => "getpid",
        SYS_SENDFILE => "sendfile",
        SYS_SOCKET => "socket",
        SYS_ACCEPT => "accept",
        SYS_SENDTO => "sendto",
        SYS_RECVFROM => "recvfrom",
        SYS_FORK => "fork",
        SYS_EXECVE => "execve",
        SYS_EXIT => "exit",
        SYS_UMASK => "umask",
        SYS_GETUID => "getuid",
        SYS_FUTEX => "futex",
        SYS_EPOLL_WAIT => "epoll_wait",
        SYS_OPENAT => "openat",
        SYS_ACCEPT4 => "accept4",
        SYS_EPOLL_PWAIT => "epoll_pwait",
        231 => "exit_group",
        _ => return None,
    })
}

/// The five syscalls of the UnixBench System Call benchmark (§5.4).
pub const UNIXBENCH_SYSCALL_LOOP: [u64; 5] =
    [SYS_DUP, SYS_CLOSE, SYS_GETPID, SYS_GETUID, SYS_UMASK];

/// Entries in the ABOM vsyscall table: dedicated wrappers exist for
/// syscall numbers `0..VSYSCALL_TABLE_ENTRIES` (§4.4); higher numbers
/// fall back to the generic bounce.
pub const VSYSCALL_TABLE_ENTRIES: u64 = 352;

/// How a syscall leaves the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyscallRoute {
    /// Hardware `syscall` trap into a ring-0 kernel (native Linux).
    Trap,
    /// Bounced through the hypervisor ABI into an isolated or
    /// same-privilege guest kernel (Xen PV, unoptimized X-LibOS).
    Forwarded,
    /// ABOM-rewritten function call straight into the X-LibOS — no
    /// privilege crossing at all (§4.4).
    FunctionCall,
}

/// Per-domain syscall dispatch routes.
///
/// The route of every syscall number (trap vs bounce vs function call)
/// is fixed once a kernel's backend and ABOM setting are known, so a
/// [`DispatchTable`] resolves them a single time into a dense
/// `SyscallRoute` table indexed by syscall number. ABOM degradation
/// (`xc-faults`) then demotes the numbers whose patches it rolls back.
#[derive(Debug, Clone)]
pub struct DispatchTable {
    /// Route per syscall number (dense, `VSYSCALL_TABLE_ENTRIES` long);
    /// numbers past the table's end take `fallback`.
    routes: Box<[SyscallRoute]>,
    /// Route for numbers without a dedicated vsyscall entry.
    fallback: SyscallRoute,
    /// Sites permanently demoted from their resolved route back to the
    /// fallback (see [`DispatchTable::demote`]).
    demoted: u64,
}

impl DispatchTable {
    /// Resolves the route for every syscall number under the given
    /// kernel deployment.
    pub fn resolve(backend: Backend, optimized: bool) -> Self {
        let (table_route, fallback) = match backend {
            Backend::Native => (SyscallRoute::Trap, SyscallRoute::Trap),
            Backend::XenPv => (SyscallRoute::Forwarded, SyscallRoute::Forwarded),
            // Only numbers with a dedicated vsyscall entry become ABOM
            // function calls; the rest still bounce.
            Backend::XKernel if optimized => (SyscallRoute::FunctionCall, SyscallRoute::Forwarded),
            Backend::XKernel => (SyscallRoute::Forwarded, SyscallRoute::Forwarded),
        };
        DispatchTable {
            routes: vec![table_route; VSYSCALL_TABLE_ENTRIES as usize].into_boxed_slice(),
            fallback,
            demoted: 0,
        }
    }

    /// Permanently demotes syscall `nr` to the fallback route — the
    /// graceful-degradation escape hatch: when an ABOM patch for a site
    /// is rolled back (failed post-patch verification, repeated patch
    /// faults), the number stops dispatching as a function call and
    /// takes the always-correct forwarded/trap path instead. Returns
    /// whether the route actually changed (demoting an already-fallback
    /// number is a no-op and is not counted).
    pub fn demote(&mut self, nr: u64) -> bool {
        match self.routes.get_mut(nr as usize) {
            Some(route) if *route != self.fallback => {
                *route = self.fallback;
                self.demoted += 1;
                true
            }
            _ => false,
        }
    }

    /// Number of syscall numbers demoted to the fallback route.
    pub fn demoted(&self) -> u64 {
        self.demoted
    }

    /// The dispatch route for syscall number `nr`.
    #[inline]
    pub fn route(&self, nr: u64) -> SyscallRoute {
        self.routes
            .get(nr as usize)
            .copied()
            .unwrap_or(self.fallback)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KernelConfig;
    use xc_sim::cost::CostModel;
    use xc_sim::time::Nanos;

    #[test]
    fn figure2_numbers() {
        // The paper's two worked examples: read (entry 0x...008) and
        // rt_sigreturn (entry 0x...080 = 8·(15+1)).
        assert_eq!(SYS_READ, 0);
        assert_eq!(SYS_RT_SIGRETURN, 15);
        assert_eq!(name(0), Some("read"));
        assert_eq!(name(15), Some("rt_sigreturn"));
    }

    #[test]
    fn unixbench_loop_named() {
        let names: Vec<_> = UNIXBENCH_SYSCALL_LOOP
            .iter()
            .map(|&n| name(n).unwrap())
            .collect();
        assert_eq!(names, vec!["dup", "close", "getpid", "getuid", "umask"]);
    }

    #[test]
    fn unknown_numbers_are_none() {
        assert_eq!(name(9999), None);
        assert_eq!(name(333), None);
    }

    #[test]
    fn numbers_fit_vsyscall_table() {
        for nr in UNIXBENCH_SYSCALL_LOOP {
            assert!(nr <= 351, "nr {nr} must have a dedicated entry");
        }
        const _: () = assert!(SYS_ACCEPT4 <= 351);
    }

    #[test]
    fn dispatch_routes_per_backend() {
        let native = DispatchTable::resolve(Backend::Native, false);
        let pv = DispatchTable::resolve(Backend::XenPv, false);
        let xc = DispatchTable::resolve(Backend::XKernel, true);
        assert_eq!(native.route(SYS_READ), SyscallRoute::Trap);
        assert_eq!(pv.route(SYS_READ), SyscallRoute::Forwarded);
        assert_eq!(xc.route(SYS_READ), SyscallRoute::FunctionCall);
        // Numbers beyond the vsyscall table keep bouncing even under ABOM.
        assert_eq!(xc.route(VSYSCALL_TABLE_ENTRIES), SyscallRoute::Forwarded);
        assert_eq!(xc.route(9999), SyscallRoute::Forwarded);
        assert_eq!(native.route(9999), SyscallRoute::Trap);
    }

    #[test]
    fn dispatch_cost_matches_backend_composition() {
        // `Backend::syscall_cost` and the resolved route describe the
        // same crossing: only a function-call route skips the hardware
        // trap, so only it escapes the KPTI tax (§5.4).
        let costs = CostModel::skylake_cloud();
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
            let route = DispatchTable::resolve(backend, optimized).route(SYS_READ);
            let tax = backend.syscall_cost(&costs, &patched, optimized)
                - backend.syscall_cost(&costs, &unpatched, optimized);
            let expected = if route == SyscallRoute::FunctionCall {
                Nanos::ZERO
            } else {
                costs.kpti_trap_extra
            };
            assert_eq!(tax, expected, "{backend:?} optimized={optimized} {route:?}");
        }
    }

    #[test]
    fn demote_falls_back_permanently() {
        let mut xc = DispatchTable::resolve(Backend::XKernel, true);
        assert_eq!(xc.route(SYS_READ), SyscallRoute::FunctionCall);
        assert!(xc.demote(SYS_READ));
        assert_eq!(xc.route(SYS_READ), SyscallRoute::Forwarded);
        assert_eq!(xc.demoted(), 1);
        // Idempotent: re-demoting an already-fallback number is a no-op.
        assert!(!xc.demote(SYS_READ));
        assert_eq!(xc.demoted(), 1);
        // Numbers past the dense table are already on the fallback.
        assert!(!xc.demote(VSYSCALL_TABLE_ENTRIES + 5));
        // Other numbers keep their optimized route.
        assert_eq!(xc.route(SYS_WRITE), SyscallRoute::FunctionCall);
    }

    #[test]
    fn unoptimized_xkernel_never_routes_function_calls() {
        let xc = DispatchTable::resolve(Backend::XKernel, false);
        for nr in 0..VSYSCALL_TABLE_ENTRIES {
            assert_eq!(xc.route(nr), SyscallRoute::Forwarded);
        }
    }
}
