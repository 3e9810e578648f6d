//! Memoized analysis results, keyed by the image as loaded.
//!
//! The full pipeline — disassembly, CFG construction, dataflow, call
//! graph, summaries, abstract interpretation, verdict judging — is a pure
//! function of the image's load address, bytes and symbols and of the
//! verifier configuration, yet the hot paths that consume it re-run it
//! per query: the online patcher's pre-flight check analyzes the image on
//! *every* trapped syscall, and the offline patcher re-analyzes an image
//! the caller often just analyzed itself. [`AnalysisCache`] memoizes
//! [`Verifier::analyze`] behind the image's [`BinaryImage::digest`] (an
//! FNV-1a hash of the first three) and the configuration, and returns the
//! shared [`Analysis`], which answers in the caller's own addresses. The
//! same bytes loaded at two bases are two entries; every cache in the
//! workspace sees a single base.
//!
//! Keying on the byte content makes invalidation automatic: the moment a
//! patcher rewrites a site, the digest changes and the stale analysis is
//! simply never consulted again. The image memoizes its digest until its
//! next change, so each content state is hashed once, and entries are
//! [`Arc`]-shared: a hit costs one load of the memo, one map probe and a
//! reference-count bump — no re-hash, no re-decode, no clone of the
//! analysis.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use xc_isa::asm::Assembler;
//! use xc_isa::inst::{Inst, Reg};
//! use xc_verify::{AnalysisCache, Verdict, Verifier};
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
//! assert!(Arc::ptr_eq(&first, &second));
//! assert_eq!(first.verdict_at(0x40_0005), Some(Verdict::Safe));
//! assert_eq!((cache.hits(), cache.misses()), (1, 1));
//! ```

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use xc_isa::image::BinaryImage;

use crate::verifier::{Analysis, Verifier};

/// Key of everything [`Verifier::analyze`] depends on: the image's
/// [`BinaryImage::digest`] (load address, length, bytes and the address
/// of **every** symbol: entry points and local labels alike seed the
/// recursive descent, and which of them are entries depends on the
/// bytes) and the verifier's configuration, since gating upgrades changes
/// verdicts.
fn key(verifier: &Verifier, image: &BinaryImage) -> (u64, bool) {
    (image.digest(), verifier.config().interprocedural_upgrades)
}

/// A memo table over [`Verifier::analyze`] with hit/miss accounting.
///
/// The cache is unbounded: its natural population is one entry per
/// distinct image state (pre-patch, post-offline-patch, and each
/// intermediate online-patch state that gets re-queried), which for the
/// study corpora is a handful of small images.
#[derive(Debug, Clone, Default)]
pub struct AnalysisCache {
    entries: HashMap<(u64, bool), Arc<Analysis>>,
    hits: u64,
    misses: u64,
}

impl AnalysisCache {
    /// An empty cache.
    pub fn new() -> Self {
        AnalysisCache::default()
    }

    /// Returns the memoized analysis of `image` under `verifier`, running
    /// the full pipeline only when the image's content (load address,
    /// bytes, symbol addresses) has not been seen before under this
    /// configuration.
    pub fn analyze(&mut self, verifier: &Verifier, image: &BinaryImage) -> Arc<Analysis> {
        match self.entries.entry(key(verifier, image)) {
            Entry::Occupied(hit) => {
                self.hits += 1;
                Arc::clone(hit.get())
            }
            Entry::Vacant(slot) => {
                self.misses += 1;
                Arc::clone(slot.insert(Arc::new(verifier.analyze(image))))
            }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Verdict;
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
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn same_bytes_at_two_bases_are_two_analyses() {
        // The load address is part of the key: the same wrapper body
        // mapped at two bases is analyzed twice, and each analysis
        // answers at its own image's addresses.
        let lo = wrapper_image_at(0x40_0000);
        let hi = wrapper_image_at(0x7000_0000);
        let verifier = Verifier::new();
        let mut cache = AnalysisCache::new();
        let a = cache.analyze(&verifier, &lo);
        let b = cache.analyze(&verifier, &hi);
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(a.verdict_at(0x40_0005), Some(Verdict::Safe));
        assert_eq!(b.verdict_at(0x7000_0005), Some(Verdict::Safe));
        assert_eq!(a.verdict_at(0x7000_0005), None);
        assert_eq!(b.verdict_at(0x40_0005), None);
        // Each base then hits its own entry.
        assert!(Arc::ptr_eq(&cache.analyze(&verifier, &hi), &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
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
        image
            .write(0x40_0000, &[0xff, 0x14, 0x25, 0x08, 0x00, 0x60, 0xff])
            .unwrap();
        let after = cache.analyze(&verifier, &image);
        assert!(!Arc::ptr_eq(&before, &after));
        assert_eq!(cache.misses(), 2, "changed bytes must re-analyze");
    }

    #[test]
    fn interprocedural_config_participates_in_the_key() {
        let image = wrapper_image();
        let mut cache = AnalysisCache::new();
        let on = Verifier::new();
        let off = Verifier::with_config(crate::verifier::VerifierConfig {
            interprocedural_upgrades: false,
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
    fn matches_uncached_analysis() {
        let image = wrapper_image();
        let verifier = Verifier::new();
        let mut cache = AnalysisCache::new();
        let cached = cache.analyze(&verifier, &image);
        let direct = verifier.analyze(&image);
        assert_eq!(cached.report().tally(), direct.report().tally());
        assert_eq!(cached.verdict_at(0x40_0005), direct.verdict_at(0x40_0005));
    }
}
