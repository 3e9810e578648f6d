//! Per-site verdicts and the whole-image verification report.

use std::fmt;

/// Why a site is provably unsafe to rewrite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsafeReason {
    /// Control enters the candidate patch region from outside it — a
    /// direct branch or an external entry point lands strictly inside the
    /// bytes the detour would overwrite.
    InteriorJumpTarget {
        /// The interior address that is entered from outside.
        target: u64,
    },
    /// An instruction inside the region branches to an address the detour
    /// trampoline cannot relocate faithfully (outside
    /// `[mov_end, syscall_addr]`).
    InteriorBranchEscapes {
        /// Address of the escaping branch.
        src: u64,
    },
    /// `%rcx` is live after the syscall: the original `syscall` clobbers
    /// it with the return `%rip`, the replacement `call` preserves it, so
    /// rewriting changes an observable value.
    RcxLiveAfterSite,
}

impl fmt::Display for UnsafeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnsafeReason::InteriorJumpTarget { target } => {
                write!(f, "interior jump target at {target:#x}")
            }
            UnsafeReason::InteriorBranchEscapes { src } => {
                write!(f, "interior branch at {src:#x} escapes the region")
            }
            UnsafeReason::RcxLiveAfterSite => write!(f, "%rcx live after site"),
        }
    }
}

/// Why the analysis cannot decide a site either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnknownReason {
    /// No compile-time constant syscall number reaches the site.
    NumberNotConstant,
    /// A constant reaches the site, but from more than one definition.
    MultipleDefinitions,
    /// The constant is outside the vsyscall table range.
    NumberOutOfRange {
        /// The out-of-range number.
        nr: i64,
    },
    /// A branch destination lands mid-instruction near the site: the
    /// bytes have two valid decodings and no single reading is sound.
    OverlappingDecode {
        /// The mid-instruction destination.
        at: u64,
    },
    /// The candidate region contains bytes the sweep could not decode.
    UndecodedBytes {
        /// First undecodable address in the region.
        at: u64,
    },
}

impl fmt::Display for UnknownReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnknownReason::NumberNotConstant => write!(f, "syscall number not constant"),
            UnknownReason::MultipleDefinitions => {
                write!(f, "syscall number has multiple definitions")
            }
            UnknownReason::NumberOutOfRange { nr } => {
                write!(f, "syscall number {nr} out of table range")
            }
            UnknownReason::OverlappingDecode { at } => {
                write!(f, "overlapping decode at {at:#x}")
            }
            UnknownReason::UndecodedBytes { at } => {
                write!(f, "undecodable bytes at {at:#x}")
            }
        }
    }
}

/// The analysis result for one `syscall` site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Rewriting this site is provably observation-equivalent.
    Safe,
    /// Rewriting this site is provably wrong.
    Unsafe(UnsafeReason),
    /// The analysis cannot prove the site either way; a sound patcher
    /// must leave it alone (ABOM treats Unknown exactly like Unsafe).
    Unknown(UnknownReason),
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Safe => write!(f, "safe"),
            Verdict::Unsafe(r) => write!(f, "unsafe: {r}"),
            Verdict::Unknown(r) => write!(f, "unknown: {r}"),
        }
    }
}

/// How the syscall number reaches the site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// An immediate `mov` (or `xor`-zero) defines the number: the shape
    /// ABOM's 7/9-byte immediate rewrites and the offline detour handle.
    ImmediateNumber,
    /// The adjacent instruction loads the number from the stack (the Go
    /// `syscall.Syscall` shape); the vsyscall dispatch entry validates the
    /// number at run time, so no static range check applies.
    StackNumber,
    /// The interprocedural pass proved the number constant through a
    /// copy, reload, or call boundary (a libc-style `syscall(nr, ...)`
    /// shim) and found a sound detour region at the propagating
    /// instruction. Syntactically the site looked like [`SiteKind::Other`];
    /// v1 reported it `Unknown`.
    PropagatedNumber,
    /// Anything else.
    Other,
}

impl fmt::Display for SiteKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SiteKind::ImmediateNumber => write!(f, "immediate"),
            SiteKind::StackNumber => write!(f, "stack"),
            SiteKind::PropagatedNumber => write!(f, "propagated"),
            SiteKind::Other => write!(f, "other"),
        }
    }
}

/// The causal chain behind a non-`Safe` verdict: not just the terminal
/// reason but *where* the proof broke down and *where* the value came
/// from, so diagnostics can point at the instruction to fix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReasonChain {
    /// The instruction that blocked the proof (the first rax-clobbering
    /// or flow-merging instruction the backward walk hit, or the
    /// escaping branch / interior target for unsafe sites).
    pub blocker: Option<u64>,
    /// The defining instruction the abstract interpreter attributes the
    /// `%rax` value to at the blocker, when it knows one.
    pub definer: Option<u64>,
}

impl ReasonChain {
    /// Chain with no recorded links.
    pub const EMPTY: ReasonChain = ReasonChain {
        blocker: None,
        definer: None,
    };
}

impl fmt::Display for ReasonChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.blocker, self.definer) {
            (Some(b), Some(d)) => write!(f, " (blocked at {b:#x}, value defined at {d:#x})"),
            (Some(b), None) => write!(f, " (blocked at {b:#x})"),
            (None, Some(d)) => write!(f, " (value defined at {d:#x})"),
            (None, None) => Ok(()),
        }
    }
}

/// The full analysis record for one `syscall` instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteReport {
    /// Address of the `syscall` instruction.
    pub syscall_addr: u64,
    /// How the number reaches the site.
    pub kind: SiteKind,
    /// The constant syscall number, when one provably reaches the site.
    pub number: Option<i64>,
    /// Address of the single defining `mov`, when one exists.
    pub mov_addr: Option<u64>,
    /// Encoded length of that defining instruction (the offline
    /// patcher drops it from the detour trampoline and re-executes the
    /// rest of the region).
    pub mov_len: Option<u8>,
    /// Causal chain for non-`Safe` verdicts (empty for `Safe`).
    pub chain: ReasonChain,
    /// The verdict.
    pub verdict: Verdict,
}

/// The whole-image verification report.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// One record per `syscall` instruction, in address order.
    pub sites: Vec<SiteReport>,
}

impl VerifyReport {
    /// Number of sites with each verdict: `(safe, unsafe, unknown)`.
    pub fn tally(&self) -> (usize, usize, usize) {
        let mut t = (0, 0, 0);
        for s in &self.sites {
            match s.verdict {
                Verdict::Safe => t.0 += 1,
                Verdict::Unsafe(_) => t.1 += 1,
                Verdict::Unknown(_) => t.2 += 1,
            }
        }
        t
    }

    /// The record for the site at `syscall_addr` (a binary search: the
    /// sites are in address order).
    pub fn site(&self, syscall_addr: u64) -> Option<&SiteReport> {
        let i = self
            .sites
            .binary_search_by_key(&syscall_addr, |s| s.syscall_addr)
            .ok()?;
        Some(&self.sites[i])
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (safe, uns, unk) = self.tally();
        writeln!(
            f,
            "{} sites: {safe} safe, {uns} unsafe, {unk} unknown",
            self.sites.len()
        )?;
        for s in &self.sites {
            writeln!(
                f,
                "  {:#x} [{}] {}{}",
                s.syscall_addr, s.kind, s.verdict, s.chain
            )?;
        }
        Ok(())
    }
}
