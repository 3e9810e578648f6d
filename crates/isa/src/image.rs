//! Loaded binary images.
//!
//! A [`BinaryImage`] is a contiguous range of virtual memory holding code,
//! with symbols. ABOM patches text pages that are mapped read-only: it
//! clears the CR0 write-protect bit and writes through with `cmpxchg`,
//! which sets the page's dirty bit (§4.4). The image keeps neither bit:
//! every patch clears CR0.WP first, so a protection check could never
//! refuse one, and no output reads a dirty bit. What it models is the
//! primitive itself: [`BinaryImage::cmpxchg`] is the ≤ 8-byte atomic
//! compare-exchange the patcher writes through, and
//! [`BinaryImage::write`] is a plain write.
//!
//! [`BinaryImage::digest`] names the content state (base, bytes and
//! symbol addresses) in one word, memoized until the next write, exchange
//! or new symbol; analysis caches key on it.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

use xc_sim::fnv::{fnv1a, fnv1a_u64, FNV_OFFSET};

/// Page size; the offline patcher page-aligns its trampoline area.
pub const PAGE_SIZE: u64 = 4096;

/// Errors raised by image memory operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageError {
    /// Address (or range end) is outside the image.
    OutOfBounds {
        /// Offending virtual address.
        addr: u64,
    },
    /// `cmpxchg` longer than 8 bytes — the hardware primitive cannot do it.
    ExchangeTooWide {
        /// Requested width.
        len: usize,
    },
    /// `cmpxchg` expected-value mismatch: the memory changed concurrently.
    ExchangeMismatch {
        /// Address of the attempted exchange.
        addr: u64,
    },
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::OutOfBounds { addr } => write!(f, "address {addr:#x} outside image"),
            ImageError::ExchangeTooWide { len } => {
                write!(f, "cmpxchg of {len} bytes exceeds 8-byte hardware limit")
            }
            ImageError::ExchangeMismatch { addr } => {
                write!(f, "cmpxchg expectation failed at {addr:#x}")
            }
        }
    }
}

impl Error for ImageError {}

/// A loaded code image: bytes at a base virtual address, and symbols.
///
/// # Example
///
/// ```
/// use xc_isa::image::BinaryImage;
///
/// let mut img = BinaryImage::new(0x400000, vec![0x90; 4096]);
/// // ABOM-style patch: one compare-exchange.
/// img.cmpxchg(0x400000, &[0x90], &[0xcc]).unwrap();
/// assert_eq!(img.read_bytes(0x400000, 1).unwrap(), [0xcc]);
/// // The expected byte is gone, so a repeat exchange fails.
/// assert!(img.cmpxchg(0x400000, &[0x90], &[0xcc]).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct BinaryImage {
    base: u64,
    bytes: Vec<u8>,
    symbols: BTreeMap<String, u64>,
    /// [`BinaryImage::digest`] of the current content, once computed;
    /// emptied by every change to the bytes or symbols.
    digest: OnceLock<u64>,
}

/// Equality of everything but the digest memo, which only caches a
/// function of the compared fields.
impl PartialEq for BinaryImage {
    fn eq(&self, other: &Self) -> bool {
        self.base == other.base && self.bytes == other.bytes && self.symbols == other.symbols
    }
}

impl Eq for BinaryImage {}

impl BinaryImage {
    /// Creates an image of `bytes` mapped at virtual address `base`, with
    /// no symbols.
    pub fn new(base: u64, bytes: Vec<u8>) -> Self {
        BinaryImage {
            base,
            bytes,
            symbols: BTreeMap::new(),
            digest: OnceLock::new(),
        }
    }

    /// Base virtual address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Image length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the image is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// One-past-the-end virtual address.
    pub fn end(&self) -> u64 {
        self.base + self.bytes.len() as u64
    }

    /// Whether `addr` lies inside the image.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.end()
    }

    fn offset(&self, addr: u64, len: usize) -> Result<usize, ImageError> {
        if !self.contains(addr) || addr + len as u64 > self.end() {
            return Err(ImageError::OutOfBounds { addr });
        }
        Ok((addr - self.base) as usize)
    }

    /// Defines a symbol at a virtual address.
    pub fn add_symbol(&mut self, name: &str, addr: u64) {
        self.symbols.insert(name.to_owned(), addr);
        self.digest.take();
    }

    /// Looks up a symbol address.
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }

    /// Iterates over `(name, addr)` pairs in name order.
    pub fn symbols(&self) -> impl Iterator<Item = (&str, u64)> {
        self.symbols.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// FNV-1a digest of the content state: the base address, the length,
    /// the bytes, then every symbol address in [`BinaryImage::symbols`]
    /// (name) order. Computed on the first call after a change to the bytes or symbols
    /// and memoized, so a repeat costs one load.
    pub fn digest(&self) -> u64 {
        *self.digest.get_or_init(|| {
            let mut h = fnv1a_u64(FNV_OFFSET, self.base);
            h = fnv1a_u64(h, self.bytes.len() as u64);
            h = fnv1a(h, &self.bytes);
            self.symbols.values().fold(h, |h, &addr| fnv1a_u64(h, addr))
        })
    }

    /// Reads `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::OutOfBounds`] if the range leaves the image.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Result<&[u8], ImageError> {
        let off = self.offset(addr, len)?;
        Ok(&self.bytes[off..off + len])
    }

    /// Reads as many bytes as available (up to `len`) starting at `addr` —
    /// convenient for decoding near the image end.
    pub fn read_upto(&self, addr: u64, len: usize) -> Result<&[u8], ImageError> {
        if !self.contains(addr) {
            return Err(ImageError::OutOfBounds { addr });
        }
        let off = (addr - self.base) as usize;
        let avail = (self.bytes.len() - off).min(len);
        Ok(&self.bytes[off..off + avail])
    }

    /// Plain write.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::OutOfBounds`] for bad ranges.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), ImageError> {
        let off = self.offset(addr, data.len())?;
        self.bytes[off..off + data.len()].copy_from_slice(data);
        self.digest.take();
        Ok(())
    }

    /// Atomic compare-exchange of up to 8 bytes, the ABOM patch primitive
    /// (§4.4; the patcher clears CR0.WP first, so no page protection
    /// applies).
    ///
    /// # Errors
    ///
    /// * [`ImageError::ExchangeTooWide`] if `expected.len() > 8`,
    /// * [`ImageError::ExchangeMismatch`] if memory does not equal
    ///   `expected`,
    /// * [`ImageError::OutOfBounds`] for bad ranges.
    ///
    /// # Panics
    ///
    /// Panics if `expected.len() != new.len()` — a caller bug.
    pub fn cmpxchg(&mut self, addr: u64, expected: &[u8], new: &[u8]) -> Result<(), ImageError> {
        assert_eq!(
            expected.len(),
            new.len(),
            "cmpxchg expected/new length mismatch"
        );
        if expected.len() > 8 {
            return Err(ImageError::ExchangeTooWide {
                len: expected.len(),
            });
        }
        let off = self.offset(addr, expected.len())?;
        if &self.bytes[off..off + expected.len()] != expected {
            return Err(ImageError::ExchangeMismatch { addr });
        }
        self.bytes[off..off + new.len()].copy_from_slice(new);
        self.digest.take();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image() -> BinaryImage {
        BinaryImage::new(0x40_0000, vec![0x90; 2 * PAGE_SIZE as usize])
    }

    #[test]
    fn bounds_and_contains() {
        let img = image();
        assert!(img.contains(0x40_0000));
        assert!(img.contains(0x40_1fff));
        assert!(!img.contains(0x40_2000));
        assert!(!img.contains(0x3f_ffff));
        assert_eq!(img.len(), 8192);
        assert_eq!(img.end(), 0x40_2000);
        assert!(img.read_bytes(0x40_1fff, 2).is_err());
        assert!(img.read_bytes(0x40_1fff, 1).is_ok());
    }

    #[test]
    fn read_upto_clips() {
        let img = image();
        assert_eq!(img.read_upto(0x40_1ffe, 16).unwrap().len(), 2);
        assert!(img.read_upto(0x40_2000, 1).is_err());
    }

    #[test]
    fn cmpxchg_happy_path_writes_the_new_bytes() {
        let mut img = image();
        img.cmpxchg(0x40_0000, &[0x90, 0x90], &[0x0f, 0x05])
            .unwrap();
        assert_eq!(img.read_bytes(0x40_0000, 3).unwrap(), [0x0f, 0x05, 0x90]);
    }

    #[test]
    fn cmpxchg_mismatch_leaves_memory_untouched() {
        let mut img = image();
        let before = img.read_bytes(0x40_0000, 4).unwrap().to_vec();
        let err = img
            .cmpxchg(0x40_0000, &[1, 2, 3, 4], &[5, 6, 7, 8])
            .unwrap_err();
        assert_eq!(err, ImageError::ExchangeMismatch { addr: 0x40_0000 });
        assert_eq!(img.read_bytes(0x40_0000, 4).unwrap(), before.as_slice());
    }

    #[test]
    fn cmpxchg_width_limit() {
        let mut img = image();
        let nine_old = [0x90; 9];
        let nine_new = [0xcc; 9];
        assert_eq!(
            img.cmpxchg(0x40_0000, &nine_old, &nine_new),
            Err(ImageError::ExchangeTooWide { len: 9 })
        );
        // 8 bytes is the hardware maximum and works.
        img.cmpxchg(0x40_0000, &[0x90; 8], &[0xcc; 8]).unwrap();
    }

    #[test]
    fn symbols() {
        let mut img = image();
        img.add_symbol("__read", 0x40_0010);
        img.add_symbol("__write", 0x40_0020);
        assert_eq!(img.symbol("__read"), Some(0x40_0010));
        assert_eq!(img.symbol("missing"), None);
        let names: Vec<&str> = img.symbols().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["__read", "__write"]);
    }

    #[test]
    fn digest_is_memoized_until_the_bytes_or_symbols_change() {
        let mut img = image();
        img.add_symbol("b", 0x40_0020);
        img.add_symbol("a", 0x40_0010);
        // Base, length, bytes, then symbol addresses in name order.
        let mut h = fnv1a_u64(FNV_OFFSET, 0x40_0000);
        h = fnv1a_u64(h, 8192);
        h = fnv1a(h, &[0x90; 8192]);
        h = fnv1a_u64(fnv1a_u64(h, 0x40_0010), 0x40_0020);
        assert_eq!(img.digest(), h);
        assert_eq!(img.digest.get(), Some(&h));
        assert_eq!(img.clone().digest.get(), Some(&h), "a clone carries it");

        // Each content change empties the memo, and the next digest is
        // that of the new content.
        let mut seen = vec![h];
        let changes: [fn(&mut BinaryImage); 3] = [
            |img| img.write(0x40_0000, &[0xcc]).unwrap(),
            |img| img.cmpxchg(0x40_1000, &[0x90], &[0xc3]).unwrap(),
            |img| img.add_symbol("c", 0x40_0030),
        ];
        for change in changes {
            change(&mut img);
            assert_eq!(img.digest.get(), None);
            let mut fresh = BinaryImage::new(
                img.base(),
                img.read_bytes(img.base(), img.len()).unwrap().to_vec(),
            );
            for (name, addr) in img.symbols() {
                fresh.add_symbol(name, addr);
            }
            assert_eq!(img.digest(), fresh.digest());
            assert!(!seen.contains(&img.digest()));
            seen.push(img.digest());
        }
    }

    #[test]
    fn equality_ignores_the_digest_memo() {
        let hashed = image();
        hashed.digest();
        assert_eq!(hashed, image());
        assert_eq!(image(), hashed);
        let mut moved = image();
        moved.add_symbol("a", 0x40_0010);
        assert_ne!(hashed, moved);
    }

    #[test]
    fn cross_page_write_lands_on_both_pages() {
        let mut img = image();
        img.write(0x40_0ffe, &[1, 2, 3, 4]).unwrap();
        assert_eq!(
            img.read_bytes(0x40_0ffd, 6).unwrap(),
            [0x90, 1, 2, 3, 4, 0x90]
        );
        assert_eq!(
            img.write(0x40_1ffe, &[1, 2, 3]),
            Err(ImageError::OutOfBounds { addr: 0x40_1ffe })
        );
    }
}
