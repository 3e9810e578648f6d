//! A working TLB model — the mechanism behind the §4.3 numbers.
//!
//! The cost model charges a context switch for "refilling the hot working
//! set" ([`KERNEL_HOT_PAGES`] + [`USER_HOT_PAGES`]) after a flush, with
//! the kernel's share skipped when its mappings carry the global bit.
//! This module implements the TLB itself — tagged
//! entries, global-bit semantics, non-global flushes — so tests can
//! *measure* the miss counts those charges assume instead of trusting
//! them.

use std::collections::BTreeMap;

/// Typical hot TLB working set of the kernel's syscall/interrupt paths,
/// in pages: what a flush forces the kernel to refill unless its
/// mappings carry the global bit.
pub const KERNEL_HOT_PAGES: u64 = 24;

/// Typical hot TLB working set of a user process, in pages.
pub const USER_HOT_PAGES: u64 = 40;

/// One translation entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TlbEntry {
    /// Address-space tag (ignored for global entries).
    asid: u64,
    global: bool,
}

/// Outcome of a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Translation present.
    Hit,
    /// Page walk required; the entry was filled.
    Miss,
}

/// A software model of a tagged TLB with global-bit support.
///
/// Capacity is unbounded (modern L2 STLBs hold the working sets in
/// question); what matters for the §4.3 story is which entries *survive
/// a flush*, not eviction pressure.
///
/// # Example
///
/// ```
/// use xc_xen::tlb::{Lookup, Tlb};
///
/// let mut tlb = Tlb::new();
/// tlb.fill(1, 0x1000, true);  // kernel page, global
/// tlb.fill(1, 0x2000, false); // user page
/// tlb.flush_non_global();
/// assert_eq!(tlb.lookup(1, 0x1000), Lookup::Hit);  // survived
/// assert_eq!(tlb.lookup(1, 0x2000), Lookup::Miss); // refilled by walk
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tlb {
    entries: BTreeMap<u64, TlbEntry>,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    pub fn new() -> Self {
        Tlb::default()
    }

    /// Installs a translation (as a page walk would).
    pub fn fill(&mut self, asid: u64, page: u64, global: bool) {
        self.entries.insert(page, TlbEntry { asid, global });
    }

    /// Looks up `page` for address space `asid`, filling on miss.
    pub fn lookup(&mut self, asid: u64, page: u64) -> Lookup {
        match self.entries.get(&page) {
            Some(e) if e.global || e.asid == asid => {
                self.hits += 1;
                Lookup::Hit
            }
            _ => {
                self.misses += 1;
                self.fill(asid, page, false);
                Lookup::Miss
            }
        }
    }

    /// Non-global flush: what a CR3 write does when the global bit is in
    /// use (the X-LibOS case, §4.3).
    pub fn flush_non_global(&mut self) {
        self.entries.retain(|_, e| e.global);
    }

    /// Full flush, global pages included: a cross-container switch, or
    /// any switch when the global bit is disabled (plain PV).
    pub fn flush_all(&mut self) {
        self.entries.clear();
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses (page walks) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the TLB holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Touches a process's working set: kernel pages (global under the
    /// X-Kernel ABI) + user pages. Returns misses incurred.
    fn touch_working_set(tlb: &mut Tlb, asid: u64, kernel_global: bool) -> u64 {
        let before = tlb.misses();
        for i in 0..KERNEL_HOT_PAGES {
            if tlb.lookup(asid, 0xffff_0000 + i) == Lookup::Miss && kernel_global {
                // Kernel fills carry the global bit.
                tlb.fill(asid, 0xffff_0000 + i, true);
            }
        }
        for i in 0..USER_HOT_PAGES {
            tlb.lookup(asid, 0x1000_0000 * asid + i);
        }
        tlb.misses() - before
    }

    #[test]
    fn global_bit_saves_exactly_the_kernel_share() {
        // The cost model charges USER_HOT_PAGES refills for an X-LibOS
        // process switch and KERNEL+USER for a PV switch. Measure both.
        let mut xk = Tlb::new();
        touch_working_set(&mut xk, 1, true); // warm process 1
        xk.flush_non_global(); // intra-container switch under X-Kernel
        let xk_refill = touch_working_set(&mut xk, 2, true);

        let mut pv = Tlb::new();
        touch_working_set(&mut pv, 1, false);
        pv.flush_all(); // PV disables the global bit: every switch flushes all
        let pv_refill = touch_working_set(&mut pv, 2, false);

        assert_eq!(xk_refill, USER_HOT_PAGES, "X-LibOS: user share only");
        assert_eq!(
            pv_refill,
            KERNEL_HOT_PAGES + USER_HOT_PAGES,
            "PV: whole working set"
        );
        assert_eq!(pv_refill - xk_refill, KERNEL_HOT_PAGES);
    }

    #[test]
    fn cross_container_switch_loses_global_entries() {
        let mut tlb = Tlb::new();
        touch_working_set(&mut tlb, 1, true);
        tlb.flush_all(); // "context switches between different
                         // X-Containers do trigger a full TLB flush"
        let refill = touch_working_set(&mut tlb, 2, true);
        assert_eq!(refill, KERNEL_HOT_PAGES + USER_HOT_PAGES);
    }

    #[test]
    fn asid_mismatch_is_a_miss() {
        let mut tlb = Tlb::new();
        tlb.fill(1, 0x42, false);
        assert_eq!(tlb.lookup(2, 0x42), Lookup::Miss, "other space's entry");
        assert_eq!(tlb.lookup(2, 0x42), Lookup::Hit, "filled for us now");
    }

    #[test]
    fn global_entries_hit_across_asids() {
        let mut tlb = Tlb::new();
        tlb.fill(1, 0x42, true);
        assert_eq!(tlb.lookup(7, 0x42), Lookup::Hit);
        assert_eq!(tlb.hits(), 1);
        assert!(!tlb.is_empty());
        assert_eq!(tlb.len(), 1);
    }

    #[test]
    fn repeated_switches_amortize_nothing_under_pv() {
        // PV pays the full refill on *every* switch; X-LibOS only pays
        // the user share — integrated over a ping-pong of two processes.
        let mut pv_misses = 0;
        let mut xk_misses = 0;
        let mut pv = Tlb::new();
        let mut xk = Tlb::new();
        touch_working_set(&mut pv, 1, false);
        touch_working_set(&mut xk, 1, true);
        for round in 0..10 {
            let asid = (round % 2) + 1;
            pv.flush_all();
            pv_misses += touch_working_set(&mut pv, asid, false);
            xk.flush_non_global();
            xk_misses += touch_working_set(&mut xk, asid, true);
        }
        assert_eq!(pv_misses, 10 * (KERNEL_HOT_PAGES + USER_HOT_PAGES));
        assert_eq!(xk_misses, 10 * USER_HOT_PAGES);
    }
}
