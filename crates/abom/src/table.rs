//! The vsyscall entry table.
//!
//! "X-LibOS stores a system call entry table in the vsyscall page, which is
//! mapped to a fixed virtual memory address in every process" (§4.4). The
//! addresses visible in Figure 2 pin down the layout this module models:
//!
//! * `__read` (syscall 0) is patched to `callq *0xffffffffff600008`,
//! * `__restore_rt` (syscall 15) to `callq *0xffffffffff600080`,
//!
//! so per-number entries live at `base + 8·(nr+1)` — slot 0 is the generic
//! `%rax` dispatcher. The Go wrapper (`syscall.Syscall`, number on the
//! stack) is patched to `callq *0xffffffffff600c08`, which places the
//! stack-dispatch entries at `base + 0xc00 + disp`.
//!
//! The layout is fixed by the ABI, so the table is address arithmetic
//! over [`VSYSCALL_BASE`] and holds no state.
//!
//! # Example
//!
//! ```
//! use xc_abom::table::{entry_for_number, resolve, stack_dispatch_entry, EntryKind};
//!
//! // Figure 2: __read (nr 0) patches to callq *0xffffffffff600008.
//! assert_eq!(entry_for_number(0), Some(0xffffffffff600008));
//! // __restore_rt (nr 15) to 0xffffffffff600080.
//! assert_eq!(entry_for_number(15), Some(0xffffffffff600080));
//! // Go's stack-based wrapper to 0xffffffffff600c08.
//! assert_eq!(stack_dispatch_entry(8), 0xffffffffff600c08);
//! assert_eq!(resolve(0xffffffffff600080), Some(EntryKind::Number(15)));
//! ```

use std::fmt;

/// Offset of the stack-dispatch entry region within the vsyscall page.
pub const STACK_DISPATCH_OFFSET: u64 = 0xc00;

pub use xc_verify::reverify::VSYSCALL_BASE;
pub use xc_verify::MAX_SYSCALL_NR;

/// How a vsyscall-table entry resolves the syscall number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntryKind {
    /// The generic dispatcher: the number is already in `%rax`.
    RaxDispatch,
    /// A per-number entry: the number is baked into the entry.
    Number(u64),
    /// A stack-dispatch entry: the number is loaded from `disp(%rsp)` of
    /// the calling frame (the Go-runtime calling convention).
    StackDisp(u8),
}

impl fmt::Display for EntryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EntryKind::RaxDispatch => write!(f, "dispatch(%rax)"),
            EntryKind::Number(nr) => write!(f, "syscall #{nr}"),
            EntryKind::StackDisp(d) => write!(f, "dispatch({d:#x}(%rsp))"),
        }
    }
}

/// Address of the dedicated entry for syscall `nr`, or `None` if the
/// number is outside the table.
pub fn entry_for_number(nr: u64) -> Option<u64> {
    (nr <= MAX_SYSCALL_NR).then(|| VSYSCALL_BASE + 8 * (nr + 1))
}

/// Address of the stack-dispatch entry for displacement `disp`.
pub fn stack_dispatch_entry(disp: u8) -> u64 {
    VSYSCALL_BASE + STACK_DISPATCH_OFFSET + u64::from(disp)
}

/// Resolves a vsyscall-page address back to its entry kind, or `None`
/// if the address is not a valid entry.
pub fn resolve(addr: u64) -> Option<EntryKind> {
    if addr < VSYSCALL_BASE {
        return None;
    }
    let off = addr - VSYSCALL_BASE;
    if off == 0 {
        Some(EntryKind::RaxDispatch)
    } else if off < STACK_DISPATCH_OFFSET {
        if !off.is_multiple_of(8) {
            return None;
        }
        let nr = off / 8 - 1;
        (nr <= MAX_SYSCALL_NR).then_some(EntryKind::Number(nr))
    } else if off < STACK_DISPATCH_OFFSET + 256 {
        Some(EntryKind::StackDisp((off - STACK_DISPATCH_OFFSET) as u8))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_addresses() {
        assert_eq!(entry_for_number(0), Some(0xffff_ffff_ff60_0008));
        assert_eq!(entry_for_number(15), Some(0xffff_ffff_ff60_0080));
        assert_eq!(stack_dispatch_entry(8), 0xffff_ffff_ff60_0c08);
    }

    #[test]
    fn resolve_roundtrip_numbers() {
        for nr in 0..=MAX_SYSCALL_NR {
            let addr = entry_for_number(nr).unwrap();
            assert_eq!(resolve(addr), Some(EntryKind::Number(nr)));
        }
        assert_eq!(entry_for_number(MAX_SYSCALL_NR + 1), None);
    }

    #[test]
    fn resolve_roundtrip_stack_disps() {
        for disp in [0u8, 8, 16, 255] {
            let addr = stack_dispatch_entry(disp);
            assert_eq!(resolve(addr), Some(EntryKind::StackDisp(disp)));
        }
    }

    #[test]
    fn resolve_rejects_garbage() {
        assert_eq!(resolve(VSYSCALL_BASE), Some(EntryKind::RaxDispatch));
        assert_eq!(resolve(VSYSCALL_BASE + 4), None); // misaligned
        assert_eq!(resolve(VSYSCALL_BASE - 8), None); // below base
        assert_eq!(resolve(VSYSCALL_BASE + 0xd00), None); // past region
        assert_eq!(resolve(0x40_0000), None);
    }

    #[test]
    fn number_and_stack_regions_disjoint() {
        let max_nr_entry = entry_for_number(MAX_SYSCALL_NR).unwrap();
        assert!(max_nr_entry < stack_dispatch_entry(0));
    }

    #[test]
    fn entry_kind_display() {
        assert_eq!(EntryKind::Number(0).to_string(), "syscall #0");
        assert_eq!(EntryKind::StackDisp(8).to_string(), "dispatch(0x8(%rsp))");
        assert_eq!(EntryKind::RaxDispatch.to_string(), "dispatch(%rax)");
    }
}
