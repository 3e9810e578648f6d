//! Memoized analysis results, keyed by image *content*.
//!
//! The full pipeline — disassembly, CFG construction, dataflow, verdict
//! judging — is a pure function of the image bytes, its entry offsets,
//! and the verifier configuration, yet the hot paths that consume it
//! re-run it per query: the online patcher's pre-flight check analyzes
//! the image on *every* trapped syscall, and the offline patcher
//! re-analyzes an image the caller often just analyzed itself.
//! [`AnalysisCache`] memoizes [`Verifier::analyze`] behind a content
//! fingerprint of `(bytes, entry offsets, config)` — deliberately **not**
//! the load address. The same function body mapped at two different bases
//! is one analysis, so distinct patch sites over identical bodies share a
//! single pipeline run instead of missing on the base.
//!
//! To make base-free sharing sound, the cache analyzes a copy of the
//! image rebased to address 0 and returns a [`CachedAnalysis`] view that
//! remembers the querying image's base: queries arrive in absolute
//! addresses, are translated to offsets against the shared analysis, and
//! address-carrying results are translated back.
//!
//! Keying on the byte content (FNV-1a over the whole image) makes
//! invalidation automatic: the moment a patcher rewrites a site, the
//! fingerprint changes and the stale analysis is simply never consulted
//! again. Entries are [`Arc`]-shared, so a hit costs one hash of the
//! image plus a reference-count bump — no re-decode, no clone of the
//! analysis.
//!
//! # Example
//!
//! ```
//! use xc_isa::asm::Assembler;
//! use xc_isa::inst::{Inst, Reg};
//! use xc_verify::{AnalysisCache, Verifier};
//!
//! let mut a = Assembler::new(0x40_0000);
//! a.inst(Inst::MovImm32 { reg: Reg::Rax, imm: 0 });
//! a.inst(Inst::Syscall);
//! a.inst(Inst::Ret);
//! let image = a.finish().unwrap();
//!
//! let mut cache = AnalysisCache::new();
//! let verifier = Verifier::new();
//! let first = cache.analyze(&verifier, &image);
//! let second = cache.analyze(&verifier, &image);
//! assert!(std::sync::Arc::ptr_eq(first.shared(), second.shared()));
//! assert_eq!((cache.hits(), cache.misses()), (1, 1));
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use xc_isa::image::BinaryImage;
use xc_sim::fnv::{fnv1a, fnv1a_u64, FNV_OFFSET};

use crate::report::{ReasonChain, SiteReport, UnknownReason, UnsafeReason, Verdict, VerifyReport};
use crate::verifier::{Analysis, DetourHazard, Verifier};

/// Content fingerprint of everything [`Verifier::analyze`] depends on
/// *modulo translation*: length, byte content, the base-relative offsets
/// of the image's entry symbols (they seed the recursive descent), and
/// the verifier's syscall-number bound. The load address is deliberately
/// excluded — the analysis of identical content is identical up to a
/// uniform shift, which [`CachedAnalysis`] applies at query time.
fn fingerprint(verifier: &Verifier, image: &BinaryImage) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv1a_u64(h, image.len() as u64);
    h = fnv1a(h, &verifier.config().max_syscall_nr.to_le_bytes());
    // The interprocedural inputs are part of the analysis function: two
    // configurations that window the frame, bound the summary fixpoint,
    // or gate upgrades differently must not share verdicts.
    h = fnv1a(
        h,
        &[
            verifier.config().stack_window_slots,
            verifier.config().max_summary_depth,
            u8::from(verifier.config().interprocedural_upgrades),
        ],
    );
    let body = image
        .read_bytes(image.base(), image.len())
        .expect("whole-image read is in bounds by construction");
    h = fnv1a(h, body);
    let mut offsets: Vec<u64> = image.symbols().map(|(_, a)| a - image.base()).collect();
    offsets.sort_unstable();
    for off in offsets {
        h = fnv1a_u64(h, off);
    }
    h
}

/// A copy of `image` mapped at address 0 (symbols carried over as
/// offsets): the canonical representative of its content class.
fn rebased_to_zero(image: &BinaryImage) -> BinaryImage {
    let bytes = image
        .read_bytes(image.base(), image.len())
        .expect("whole-image read is in bounds by construction")
        .to_vec();
    let mut out = BinaryImage::new(0, bytes);
    for (name, addr) in image.symbols() {
        out.add_symbol(name, addr - image.base());
    }
    out
}

/// A cache-backed view of one image's [`Analysis`].
///
/// The underlying analysis is computed over the image rebased to address
/// 0 and shared by every image with the same content, wherever each is
/// loaded. The view remembers the querying image's base and translates:
/// query addresses are shifted down on the way in, address-carrying
/// verdicts and hazards are shifted back up on the way out, so callers
/// keep speaking absolute addresses throughout.
#[derive(Debug, Clone)]
pub struct CachedAnalysis {
    base: u64,
    inner: Arc<Analysis>,
}

impl CachedAnalysis {
    /// The verdict for the `syscall` at absolute address `syscall_addr`,
    /// if one exists there.
    pub fn verdict_at(&self, syscall_addr: u64) -> Option<Verdict> {
        let v = self
            .inner
            .verdict_at(syscall_addr.checked_sub(self.base)?)?;
        Some(self.rebase_verdict(v))
    }

    /// Pre-flight detour check (see [`Analysis::region_detour_hazard`]),
    /// in absolute addresses.
    pub fn region_detour_hazard(
        &self,
        region_start: u64,
        mov_end: u64,
        syscall_addr: u64,
    ) -> Option<DetourHazard> {
        let h = self.inner.region_detour_hazard(
            region_start - self.base,
            mov_end - self.base,
            syscall_addr - self.base,
        )?;
        Some(self.rebase_hazard(h))
    }

    /// Batched pre-flight detour check (see
    /// [`Analysis::region_detour_hazards`]), in absolute addresses:
    /// answers every query with one pass over the shared analysis's edge
    /// list.
    pub fn region_detour_hazards(&self, queries: &[(u64, u64, u64)]) -> Vec<Option<DetourHazard>> {
        let translated: Vec<(u64, u64, u64)> = queries
            .iter()
            .map(|&(rs, me, sa)| (rs - self.base, me - self.base, sa - self.base))
            .collect();
        self.inner
            .region_detour_hazards(&translated)
            .into_iter()
            .map(|h| h.map(|h| self.rebase_hazard(h)))
            .collect()
    }

    fn rebase_hazard(&self, h: DetourHazard) -> DetourHazard {
        match h {
            DetourHazard::InteriorJumpTarget { target } => DetourHazard::InteriorJumpTarget {
                target: target + self.base,
            },
            DetourHazard::EscapingInteriorBranch { src } => DetourHazard::EscapingInteriorBranch {
                src: src + self.base,
            },
        }
    }

    /// The per-site report. Site addresses are base-relative offsets (the
    /// shared analysis is position-independent); counts and verdict kinds
    /// are what callers consume.
    pub fn report(&self) -> &VerifyReport {
        self.inner.report()
    }

    /// The full site record for the `syscall` at absolute address
    /// `syscall_addr`, with every embedded address translated into the
    /// caller's base (the offline patcher uses this to place detours for
    /// [`crate::SiteKind::PropagatedNumber`] sites).
    pub fn site_at(&self, syscall_addr: u64) -> Option<SiteReport> {
        let s = *self
            .inner
            .report()
            .site(syscall_addr.checked_sub(self.base)?)?;
        Some(SiteReport {
            syscall_addr: s.syscall_addr + self.base,
            kind: s.kind,
            number: s.number,
            mov_addr: s.mov_addr.map(|a| a + self.base),
            mov_len: s.mov_len,
            chain: ReasonChain {
                blocker: s.chain.blocker.map(|a| a + self.base),
                definer: s.chain.definer.map(|a| a + self.base),
            },
            verdict: self.rebase_verdict(s.verdict),
        })
    }

    /// The shared offset-based analysis (addresses relative to the image
    /// base). Two views over identical content share one allocation.
    pub fn shared(&self) -> &Arc<Analysis> {
        &self.inner
    }

    fn rebase_verdict(&self, v: Verdict) -> Verdict {
        match v {
            Verdict::Unsafe(UnsafeReason::InteriorJumpTarget { target }) => {
                Verdict::Unsafe(UnsafeReason::InteriorJumpTarget {
                    target: target + self.base,
                })
            }
            Verdict::Unsafe(UnsafeReason::InteriorBranchEscapes { src }) => {
                Verdict::Unsafe(UnsafeReason::InteriorBranchEscapes {
                    src: src + self.base,
                })
            }
            Verdict::Unknown(UnknownReason::OverlappingDecode { at }) => {
                Verdict::Unknown(UnknownReason::OverlappingDecode { at: at + self.base })
            }
            Verdict::Unknown(UnknownReason::UndecodedBytes { at }) => {
                Verdict::Unknown(UnknownReason::UndecodedBytes { at: at + self.base })
            }
            other => other,
        }
    }
}

/// A memo table over [`Verifier::analyze`] with hit/miss accounting.
///
/// The cache is unbounded: its natural population is one entry per
/// distinct image *content* (pre-patch, post-offline-patch, and each
/// intermediate online-patch state that gets re-queried), which for the
/// study corpora is a handful of small images. Use [`AnalysisCache::clear`]
/// if a long-lived process churns through many images.
#[derive(Debug, Clone, Default)]
pub struct AnalysisCache {
    entries: HashMap<u64, Arc<Analysis>>,
    hits: u64,
    misses: u64,
}

impl AnalysisCache {
    /// An empty cache.
    pub fn new() -> Self {
        AnalysisCache::default()
    }

    /// Returns the memoized analysis of `image` under `verifier`, running
    /// the full pipeline only when the `(bytes, entry offsets, config)`
    /// fingerprint has not been seen before — at *any* load address.
    pub fn analyze(&mut self, verifier: &Verifier, image: &BinaryImage) -> CachedAnalysis {
        let key = fingerprint(verifier, image);
        if let Some(hit) = self.entries.get(&key) {
            self.hits += 1;
            return CachedAnalysis {
                base: image.base(),
                inner: Arc::clone(hit),
            };
        }
        self.misses += 1;
        let inner = Arc::new(verifier.analyze(&rebased_to_zero(image)));
        self.entries.insert(key, Arc::clone(&inner));
        CachedAnalysis {
            base: image.base(),
            inner,
        }
    }

    /// Number of lookups served from the memo table.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of lookups that ran the full analysis pipeline.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Fraction of lookups served from the memo table, in `[0, 1]`
    /// (0 when nothing has been looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Number of distinct image contents currently memoized.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops all memoized analyses; keeps the hit/miss counters.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xc_isa::asm::Assembler;
    use xc_isa::inst::{Inst, Reg};

    fn wrapper_image_at(base: u64) -> BinaryImage {
        let mut a = Assembler::new(base);
        a.label("wrapper").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 1,
        });
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        a.finish().unwrap()
    }

    fn wrapper_image() -> BinaryImage {
        wrapper_image_at(0x40_0000)
    }

    #[test]
    fn second_lookup_hits_and_shares() {
        let image = wrapper_image();
        let verifier = Verifier::new();
        let mut cache = AnalysisCache::new();
        let a = cache.analyze(&verifier, &image);
        let b = cache.analyze(&verifier, &image);
        assert!(Arc::ptr_eq(a.shared(), b.shared()));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn identical_bodies_at_different_bases_share_one_analysis() {
        // The rekey at work: the same wrapper body mapped at two distinct
        // load addresses is one cache entry, and each view still answers
        // at its own absolute addresses.
        let lo = wrapper_image_at(0x40_0000);
        let hi = wrapper_image_at(0x7000_0000);
        let verifier = Verifier::new();
        let mut cache = AnalysisCache::new();
        let a = cache.analyze(&verifier, &lo);
        let b = cache.analyze(&verifier, &hi);
        assert_eq!(
            (cache.hits(), cache.misses()),
            (1, 1),
            "repeated analyses of the same body must hit"
        );
        assert!(Arc::ptr_eq(a.shared(), b.shared()));
        assert_eq!(a.verdict_at(0x40_0005), Some(Verdict::Safe));
        assert_eq!(b.verdict_at(0x7000_0005), Some(Verdict::Safe));
        assert_eq!(b.verdict_at(0x40_0005), None, "views do not mix bases");
    }

    #[test]
    fn rebased_view_translates_verdict_addresses() {
        // An image whose verdict embeds an address: a jump from outside
        // into the region interior. The view must report it in the
        // caller's absolute address space.
        fn hazard_image(base: u64) -> (BinaryImage, u64, u64) {
            let mut a = Assembler::new(base);
            a.label("w").unwrap();
            a.inst(Inst::MovImm32 {
                reg: Reg::Rax,
                imm: 1,
            });
            a.label("interior").unwrap();
            a.inst(Inst::Nop);
            let syscall_at = a.here();
            a.inst(Inst::Syscall);
            a.inst(Inst::Ret);
            a.label("other").unwrap();
            a.jmp_to("interior");
            let img = a.finish().unwrap();
            let interior = img.symbol("interior").unwrap();
            (img, syscall_at, interior)
        }
        let (lo, lo_sys, lo_interior) = hazard_image(0x1000);
        let (hi, hi_sys, hi_interior) = hazard_image(0x9_0000);
        let verifier = Verifier::new();
        let mut cache = AnalysisCache::new();
        let a = cache.analyze(&verifier, &lo);
        let b = cache.analyze(&verifier, &hi);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(
            a.verdict_at(lo_sys),
            Some(Verdict::Unsafe(UnsafeReason::InteriorJumpTarget {
                target: lo_interior
            }))
        );
        assert_eq!(
            b.verdict_at(hi_sys),
            Some(Verdict::Unsafe(UnsafeReason::InteriorJumpTarget {
                target: hi_interior
            }))
        );
    }

    #[test]
    fn batched_hazard_view_translates_addresses() {
        let mut a = Assembler::new(0x9_0000);
        a.label("w").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 1,
        });
        a.label("interior").unwrap();
        a.inst(Inst::Nop);
        let syscall_at = a.here();
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        a.label("other").unwrap();
        a.jmp_to("interior");
        let img = a.finish().unwrap();
        let w = img.symbol("w").unwrap();
        let view = AnalysisCache::new().analyze(&Verifier::new(), &img);
        let queries = [(w, w + 5, syscall_at)];
        let batched = view.region_detour_hazards(&queries);
        assert_eq!(batched.len(), 1);
        assert_eq!(batched[0], view.region_detour_hazard(w, w + 5, syscall_at));
        assert_eq!(
            batched[0],
            Some(DetourHazard::InteriorJumpTarget {
                target: img.symbol("interior").unwrap()
            }),
            "hazard address must come back in the caller's base"
        );
    }

    #[test]
    fn entry_offsets_participate_in_the_key() {
        // Same bytes, same base, different symbol placement: the second
        // image's extra entry point changes what the recursive descent
        // sees, so the analyses must not alias.
        let plain = wrapper_image();
        let mut a = Assembler::new(0x40_0000);
        a.label("wrapper").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 1,
        });
        a.label("midway").unwrap();
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let labelled = a.finish().unwrap();
        let verifier = Verifier::new();
        let mut cache = AnalysisCache::new();
        cache.analyze(&verifier, &plain);
        cache.analyze(&verifier, &labelled);
        assert_eq!(
            cache.misses(),
            2,
            "different entry offsets must not collide"
        );
    }

    #[test]
    fn mutation_invalidates_by_content() {
        let mut image = wrapper_image();
        let verifier = Verifier::new();
        let mut cache = AnalysisCache::new();
        let before = cache.analyze(&verifier, &image);
        // Rewrite the mov+syscall pair the way ABOM's case 1 would.
        image.protect_all(true);
        image
            .write(0x40_0000, &[0xff, 0x14, 0x25, 0x08, 0x00, 0x60, 0xff])
            .unwrap();
        let after = cache.analyze(&verifier, &image);
        assert!(!Arc::ptr_eq(before.shared(), after.shared()));
        assert_eq!(cache.misses(), 2, "changed bytes must re-analyze");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn config_participates_in_the_key() {
        let image = wrapper_image();
        let mut cache = AnalysisCache::new();
        let default = Verifier::new();
        let narrow = Verifier::with_config(crate::verifier::VerifierConfig {
            max_syscall_nr: 0,
            ..Default::default()
        });
        cache.analyze(&default, &image);
        cache.analyze(&narrow, &image);
        assert_eq!(cache.misses(), 2, "different configs must not collide");
    }

    #[test]
    fn interprocedural_config_participates_in_the_key() {
        let image = wrapper_image();
        let mut cache = AnalysisCache::new();
        let on = Verifier::new();
        let off = Verifier::with_config(crate::verifier::VerifierConfig {
            interprocedural_upgrades: false,
            ..Default::default()
        });
        cache.analyze(&on, &image);
        cache.analyze(&off, &image);
        assert_eq!(
            cache.misses(),
            2,
            "upgrade gating changes verdicts, so it must key the cache"
        );
    }

    #[test]
    fn site_at_rebases_propagated_site_addresses() {
        fn shim_image(base: u64) -> BinaryImage {
            let mut a = Assembler::new(base);
            a.label("wrapper").unwrap();
            a.inst(Inst::MovImm32 {
                reg: Reg::Rdi,
                imm: 39,
            });
            a.call_to("shim");
            a.inst(Inst::Ret);
            a.label("shim").unwrap();
            a.inst(Inst::MovRegReg64 {
                dst: Reg::Rax,
                src: Reg::Rdi,
            });
            a.inst(Inst::Syscall);
            a.inst(Inst::Ret);
            a.finish().unwrap()
        }
        let lo = shim_image(0x1000);
        let hi = shim_image(0x9_0000);
        let verifier = Verifier::new();
        let mut cache = AnalysisCache::new();
        let a = cache.analyze(&verifier, &lo);
        let b = cache.analyze(&verifier, &hi);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        for (view, img) in [(&a, &lo), (&b, &hi)] {
            let shim = img.symbol("shim").unwrap();
            let site = view.site_at(shim + 3).unwrap();
            assert_eq!(site.verdict, Verdict::Safe);
            assert_eq!(site.kind, crate::report::SiteKind::PropagatedNumber);
            assert_eq!(site.mov_addr, Some(shim));
            assert_eq!(site.mov_len, Some(3));
        }
    }

    #[test]
    fn matches_uncached_analysis() {
        let image = wrapper_image();
        let verifier = Verifier::new();
        let mut cache = AnalysisCache::new();
        let cached = cache.analyze(&verifier, &image);
        let direct = verifier.analyze(&image);
        assert_eq!(cached.report().tally(), direct.report().tally());
        assert_eq!(cached.verdict_at(0x40_0005), direct.verdict_at(0x40_0005));
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let image = wrapper_image();
        let verifier = Verifier::new();
        let mut cache = AnalysisCache::new();
        cache.analyze(&verifier, &image);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.misses(), 1);
        cache.analyze(&verifier, &image);
        assert_eq!(cache.misses(), 2);
    }
}
