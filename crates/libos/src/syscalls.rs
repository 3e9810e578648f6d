//! The x86-64 Linux syscall table (the slice the workloads exercise).
//!
//! Binary compatibility (§2.3) means *numbers* are the interface: ABOM
//! bakes them into vsyscall entries and the Table 1 profiles distribute
//! dynamic calls over them. This module gives the numbers names so
//! profiles and tests read like strace output instead of integer soup.

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
