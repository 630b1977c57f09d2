//! The NVMM image, typed persistent arrays, and a bump allocator.
//!
//! The non-volatile main memory is modelled as a flat byte array. Only data
//! that has been written back from the cache hierarchy (naturally evicted,
//! flushed, cleaned, or drained) lives here; a crash discards all cache
//! contents and keeps exactly this image.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::addr::{Addr, LineAddr, LINE_BYTES};

/// Byte pattern a poisoned (media-error) line reads as. Repeated across
/// the line it forms [`POISON_WORD`] in every 8-byte word, so checksum
/// folds over poisoned data are deterministic.
pub const POISON_BYTE: u8 = 0xDE;

/// The 8-byte little-endian word a poisoned line reads as.
pub const POISON_WORD: u64 = u64::from_le_bytes([POISON_BYTE; 8]);

/// Number of 8-byte words in a cache line (torn-write granularity).
pub const WORDS_PER_LINE: usize = LINE_BYTES / 8;

/// Lines per copy-on-write overlay page (64 lines = 4 KiB of data), so a
/// line number splits into `page = lineno >> 6`, `slot = lineno & 63` with
/// plain shifts — no hashing anywhere on the overlay path.
const PAGE_LINES: usize = 64;
/// `log2(PAGE_LINES)`.
const PAGE_LINE_SHIFT: u32 = 6;

/// One overlay page: a presence bitmap plus the line payloads. Pages are
/// boxed so an unpopulated directory slot costs one null pointer, and the
/// whole page (bitmap + 4 KiB) clones with a single memcpy on fork.
#[derive(Debug, Clone)]
struct OverlayPage {
    /// Bit `s` set ⇒ line `s` of this page lives in `data`.
    present: u64,
    /// Line payloads; only `present` slots are meaningful.
    data: [[u8; LINE_BYTES]; PAGE_LINES],
}

impl OverlayPage {
    fn new_boxed() -> Box<OverlayPage> {
        Box::new(OverlayPage {
            present: 0,
            data: [[0u8; LINE_BYTES]; PAGE_LINES],
        })
    }
}

/// The simulated non-volatile main memory: a flat byte image with
/// copy-on-write forking.
///
/// All contents are durable by definition. The cache hierarchy reads lines
/// from and writes lines to this image; [`crate::machine::Machine`] exposes
/// `poke_*`/`peek_*` helpers that bypass the hierarchy for setup and
/// post-crash inspection.
///
/// The image is a shared base (`Arc<Vec<u8>>`) plus a per-handle *paged*
/// overlay: a directory of `Option<Box<OverlayPage>>` indexed by
/// `lineno >> 6`, each page holding a presence bitmap and 64 line
/// payloads. Every overlay access is line-index arithmetic (two shifts and
/// a bit test) — no hashing. [`Nvmm::fork`] is O(touched pages) — it
/// shares the base and clones only populated pages — so a crash-state
/// model checker can explore thousands of candidate post-crash images
/// without deep-copying the heap. The directory grows lazily to the
/// highest written page, and the bump allocator hands out addresses from
/// zero upward, so its span tracks the *used* heap, not the configured
/// capacity. A handle that uniquely owns its base (the common, unforked
/// case) flattens the overlay back into the base on write, so normal
/// simulation pays no overlay cost.
///
/// The base is atomically reference-counted so a whole image (and hence a
/// machine) can move across host threads: the parallel exploration engine
/// forks images on one worker and recovers them on another.
///
/// # Media faults
///
/// A line can be *poisoned* ([`Nvmm::poison_line`]): its cells are
/// re-programmed to the fixed [`POISON_BYTE`] pattern and the line is
/// remembered in a poison set. Reads simply observe the pattern (the model
/// is deterministic, not an exception machine); any subsequent full-line
/// write re-programs the cells and *scrubs* the poison, which is exactly
/// what a cache writeback does. Recovery code queries
/// [`Nvmm::poisoned_lines`] to quarantine regions it must not trust.
#[derive(Debug, Clone)]
pub struct Nvmm {
    base: Arc<Vec<u8>>,
    /// Paged overlay directory, indexed by `lineno >> PAGE_LINE_SHIFT`.
    overlay: Vec<Option<Box<OverlayPage>>>,
    /// Lines currently present across all overlay pages (O(1) emptiness
    /// test for the read fast path).
    overlay_count: usize,
    /// Lines currently poisoned (ordered for deterministic reporting).
    poisoned: BTreeSet<u64>,
}

impl Nvmm {
    /// Create an image of `bytes` capacity, zero-filled.
    pub fn new(bytes: usize) -> Self {
        Nvmm {
            base: Arc::new(vec![0u8; bytes]),
            overlay: Vec::new(),
            overlay_count: 0,
            poisoned: BTreeSet::new(),
        }
    }

    /// The overlay payload for `lineno`, if that line has been written
    /// since the base was last uniquely owned.
    #[inline]
    fn overlay_get(&self, lineno: u64) -> Option<&[u8; LINE_BYTES]> {
        let page = (lineno >> PAGE_LINE_SHIFT) as usize;
        let slot = (lineno & (PAGE_LINES as u64 - 1)) as usize;
        match self.overlay.get(page) {
            Some(Some(p)) if p.present & (1u64 << slot) != 0 => Some(&p.data[slot]),
            _ => None,
        }
    }

    /// A writable overlay payload for `lineno`, seeded from the base image
    /// when the line was not yet present (read-modify-write path).
    fn overlay_line_mut(&mut self, lineno: u64) -> &mut [u8; LINE_BYTES] {
        let page = (lineno >> PAGE_LINE_SHIFT) as usize;
        let slot = (lineno & (PAGE_LINES as u64 - 1)) as usize;
        if page >= self.overlay.len() {
            self.overlay.resize_with(page + 1, || None);
        }
        let p = self.overlay[page].get_or_insert_with(OverlayPage::new_boxed);
        if p.present & (1u64 << slot) == 0 {
            p.present |= 1u64 << slot;
            self.overlay_count += 1;
            let lb = lineno as usize * LINE_BYTES;
            p.data[slot].copy_from_slice(&self.base[lb..lb + LINE_BYTES]);
        }
        &mut self.overlay[page].as_mut().expect("page just ensured").data[slot]
    }

    /// Install `buf` as the overlay payload for `lineno` (full-line write;
    /// no base seed needed).
    fn overlay_insert(&mut self, lineno: u64, buf: &[u8; LINE_BYTES]) {
        let page = (lineno >> PAGE_LINE_SHIFT) as usize;
        let slot = (lineno & (PAGE_LINES as u64 - 1)) as usize;
        if page >= self.overlay.len() {
            self.overlay.resize_with(page + 1, || None);
        }
        let p = self.overlay[page].get_or_insert_with(OverlayPage::new_boxed);
        if p.present & (1u64 << slot) == 0 {
            p.present |= 1u64 << slot;
            self.overlay_count += 1;
        }
        p.data[slot] = *buf;
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.base.len()
    }

    /// A copy-on-write fork of the current image. The fork shares the
    /// base bytes with `self`; writes on either side land in that side's
    /// private overlay (or in a freshly-owned base once the other handles
    /// are dropped), so forking is O(touched overlay pages), not O(heap).
    pub fn fork(&self) -> Nvmm {
        Nvmm {
            base: Arc::clone(&self.base),
            overlay: self.overlay.clone(),
            overlay_count: self.overlay_count,
            poisoned: self.poisoned.clone(),
        }
    }

    /// Number of lines currently living in this handle's overlay (0 when
    /// the handle uniquely owns its base). Exposed for fork-cost metrics.
    pub fn overlay_lines(&self) -> usize {
        self.overlay_count
    }

    /// Whether the base image is shared with other forks.
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.base) > 1
    }

    /// If the base is uniquely owned, merge the overlay back into it so
    /// subsequent writes take the direct path. Early-outs on an empty
    /// overlay (the common unforked case) before touching the refcount.
    fn flatten(&mut self) {
        if self.overlay_count == 0 {
            return;
        }
        if let Some(data) = Arc::get_mut(&mut self.base) {
            for (pi, slot) in self.overlay.iter().enumerate() {
                let Some(p) = slot else { continue };
                let mut present = p.present;
                while present != 0 {
                    let s = present.trailing_zeros() as usize;
                    present &= present - 1;
                    let base = (pi * PAGE_LINES + s) * LINE_BYTES;
                    data[base..base + LINE_BYTES].copy_from_slice(&p.data[s]);
                }
            }
            self.overlay.clear();
            self.overlay_count = 0;
        }
    }

    #[inline]
    fn check_line(&self, line: LineAddr) {
        let base = line.base().0 as usize;
        debug_assert_eq!(base % LINE_BYTES, 0, "line base must be line-aligned");
        debug_assert!(
            base + LINE_BYTES <= self.base.len(),
            "line {line} outside the NVMM image ({} bytes)",
            self.base.len()
        );
        let _ = base;
    }

    /// Read a full cache line into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if the line is outside the image.
    pub fn read_line(&self, line: LineAddr, buf: &mut [u8; LINE_BYTES]) {
        self.check_line(line);
        // Fast path: an unforked image has no overlay, so skip the page
        // probe entirely (this runs on every simulated line fill).
        if self.overlay_count != 0 {
            if let Some(over) = self.overlay_get(line.0) {
                *buf = *over;
                return;
            }
        }
        let base = line.base().0 as usize;
        buf.copy_from_slice(&self.base[base..base + LINE_BYTES]);
    }

    /// Write a full cache line from `buf`. A full-line write re-programs
    /// every cell, so it scrubs any poison on the line.
    ///
    /// # Panics
    ///
    /// Panics if the line is outside the image.
    pub fn write_line(&mut self, line: LineAddr, buf: &[u8; LINE_BYTES]) {
        self.check_line(line);
        if !self.poisoned.is_empty() {
            self.poisoned.remove(&line.0);
        }
        if Arc::get_mut(&mut self.base).is_some() {
            self.flatten();
            let base = line.base().0 as usize;
            let data = Arc::get_mut(&mut self.base).expect("uniquely owned");
            data[base..base + LINE_BYTES].copy_from_slice(buf);
        } else {
            self.overlay_insert(line.0, buf);
        }
    }

    /// Write only the 8-byte words of `buf` selected by `word_mask` (bit
    /// `w` selects bytes `[8w, 8w+8)`), leaving the rest of the line as it
    /// was — a *torn* line persist. ADR platforms guarantee 8-byte-aligned
    /// atomic durability but nothing wider, so a crash mid-writeback may
    /// land any subset of a line's words.
    ///
    /// The merge happens at write time (read current line, splice selected
    /// words, store the full line), so [`Nvmm::read_line`] and
    /// [`Nvmm::fork`] need no per-word bookkeeping and the empty-overlay
    /// read fast path is untouched. Like any write, a torn write
    /// re-programs the line's cells and scrubs poison.
    ///
    /// # Panics
    ///
    /// Panics if the line is outside the image.
    pub fn write_words(&mut self, line: LineAddr, buf: &[u8; LINE_BYTES], word_mask: u8) {
        if word_mask == 0 {
            return;
        }
        if word_mask == 0xFF {
            self.write_line(line, buf);
            return;
        }
        let mut merged = [0u8; LINE_BYTES];
        self.read_line(line, &mut merged);
        for w in 0..WORDS_PER_LINE {
            if word_mask & (1u8 << w) != 0 {
                merged[8 * w..8 * w + 8].copy_from_slice(&buf[8 * w..8 * w + 8]);
            }
        }
        self.write_line(line, &merged);
    }

    /// Mark `line` as a media error: its cells now hold the
    /// [`POISON_BYTE`] pattern and the line is tracked as poisoned until a
    /// writeback scrubs it.
    ///
    /// # Panics
    ///
    /// Panics if the line is outside the image.
    pub fn poison_line(&mut self, line: LineAddr) {
        self.check_line(line);
        self.write_line(line, &[POISON_BYTE; LINE_BYTES]);
        self.poisoned.insert(line.0);
    }

    /// Whether `line` is currently poisoned.
    pub fn is_poisoned(&self, line: LineAddr) -> bool {
        self.poisoned.contains(&line.0)
    }

    /// All currently poisoned lines, in ascending address order.
    pub fn poisoned_lines(&self) -> Vec<LineAddr> {
        self.poisoned.iter().map(|&l| LineAddr(l)).collect()
    }

    /// Number of currently poisoned lines.
    pub fn poisoned_count(&self) -> usize {
        self.poisoned.len()
    }

    /// Untimed typed read of element `i` of `arr` (setup/inspection
    /// path).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn peek<T: Scalar>(&self, arr: PArray<T>, i: usize) -> T {
        let mut bits = [0u8; 8];
        self.peek_bytes(arr.addr(i), &mut bits[..T::SIZE]);
        T::from_bits64(u64::from_le_bytes(bits))
    }

    /// Read `N` bytes at an arbitrary address (setup/inspection path).
    pub fn peek_bytes(&self, addr: Addr, out: &mut [u8]) {
        let base = addr.0 as usize;
        assert!(base + out.len() <= self.base.len(), "peek out of bounds");
        if self.overlay_count == 0 {
            out.copy_from_slice(&self.base[base..base + out.len()]);
            return;
        }
        // Forked image: stitch base and overlay line-chunk by line-chunk.
        let end = base + out.len();
        let mut at = base;
        while at < end {
            let off = at % LINE_BYTES;
            let n = (LINE_BYTES - off).min(end - at);
            let dst = &mut out[at - base..at - base + n];
            match self.overlay_get((at / LINE_BYTES) as u64) {
                Some(over) => dst.copy_from_slice(&over[off..off + n]),
                None => dst.copy_from_slice(&self.base[at..at + n]),
            }
            at += n;
        }
    }

    /// Write bytes at an arbitrary address (setup path; this models data
    /// that is already durable before the measured run begins).
    pub fn poke_bytes(&mut self, addr: Addr, bytes: &[u8]) {
        let base = addr.0 as usize;
        assert!(base + bytes.len() <= self.base.len(), "poke out of bounds");
        if Arc::get_mut(&mut self.base).is_some() {
            self.flatten();
            let data = Arc::get_mut(&mut self.base).expect("uniquely owned");
            data[base..base + bytes.len()].copy_from_slice(bytes);
            return;
        }
        // Forked image: splice line-chunk by line-chunk into the overlay,
        // seeding each newly-present line from the base.
        let end = base + bytes.len();
        let mut at = base;
        while at < end {
            let off = at % LINE_BYTES;
            let n = (LINE_BYTES - off).min(end - at);
            let over = self.overlay_line_mut((at / LINE_BYTES) as u64);
            over[off..off + n].copy_from_slice(&bytes[at - base..at - base + n]);
            at += n;
        }
    }
}

mod private {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for u64 {}
    impl Sealed for u32 {}
}

/// Plain scalar types that can live in simulated persistent memory.
///
/// This trait is sealed; it is implemented for `f64`, `u64` and `u32`.
/// Values are stored as little-endian bit patterns so that a crash (which
/// operates on raw bytes) round-trips exactly.
pub trait Scalar: private::Sealed + Copy + PartialEq + std::fmt::Debug + Default {
    /// Size of the scalar in bytes.
    const SIZE: usize;
    /// Widen the bit pattern to 64 bits (zero-extended).
    fn to_bits64(self) -> u64;
    /// Recover the value from a 64-bit bit pattern.
    fn from_bits64(bits: u64) -> Self;
}

impl Scalar for f64 {
    const SIZE: usize = 8;
    #[inline]
    fn to_bits64(self) -> u64 {
        self.to_bits()
    }
    #[inline]
    fn from_bits64(bits: u64) -> Self {
        f64::from_bits(bits)
    }
}

impl Scalar for u64 {
    const SIZE: usize = 8;
    #[inline]
    fn to_bits64(self) -> u64 {
        self
    }
    #[inline]
    fn from_bits64(bits: u64) -> Self {
        bits
    }
}

impl Scalar for u32 {
    const SIZE: usize = 4;
    #[inline]
    fn to_bits64(self) -> u64 {
        self as u64
    }
    #[inline]
    fn from_bits64(bits: u64) -> Self {
        bits as u32
    }
}

/// A typed handle to a contiguous array in simulated persistent memory.
///
/// `PArray` is a cheap `Copy` handle (base address + length); the actual
/// bytes live in the NVMM image / cache hierarchy. Element accesses go
/// through [`crate::core::CoreCtx`] so they are timed and crash-aware;
/// `Machine::poke_slice`/`peek_slice` provide untimed setup access.
///
/// # Examples
///
/// ```
/// use lp_sim::machine::Machine;
/// use lp_sim::config::MachineConfig;
/// let mut m = Machine::new(MachineConfig::default().with_nvmm_bytes(1 << 20));
/// let arr = m.alloc::<f64>(100).unwrap();
/// m.poke(arr, 3, 1.5);
/// assert_eq!(m.peek(arr, 3), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PArray<T: Scalar> {
    base: Addr,
    len: usize,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Scalar> PArray<T> {
    pub(crate) fn from_raw(base: Addr, len: usize) -> Self {
        PArray {
            base,
            len,
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Base byte address of the array.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Byte address of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn addr(&self, i: usize) -> Addr {
        assert!(
            i < self.len,
            "PArray index {i} out of bounds (len {})",
            self.len
        );
        Addr(self.base.0 + (i * T::SIZE) as u64)
    }

    /// Total size in bytes.
    pub fn bytes(&self) -> u64 {
        (self.len * T::SIZE) as u64
    }

    /// Distinct cache lines covered by the whole array.
    pub fn lines(&self) -> impl Iterator<Item = LineAddr> {
        crate::addr::lines_covering(self.base, self.bytes())
    }

    /// Distinct cache lines covered by elements `[start, start+count)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn lines_of_range(&self, start: usize, count: usize) -> impl Iterator<Item = LineAddr> {
        assert!(start + count <= self.len, "range out of bounds");
        let first = Addr(self.base.0 + (start * T::SIZE) as u64);
        crate::addr::lines_covering(first, (count * T::SIZE) as u64)
    }
}

/// Error returned when the persistent heap runs out of capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfPersistentMemory {
    /// Bytes requested by the failing allocation.
    pub requested: u64,
    /// Bytes remaining in the heap.
    pub available: u64,
}

impl std::fmt::Display for OutOfPersistentMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of persistent memory: requested {} bytes, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for OutOfPersistentMemory {}

/// Line-aligned bump allocator over the NVMM address space.
///
/// Allocations are aligned to cache-line boundaries so distinct arrays never
/// share a line (avoiding false sharing between simulated threads and making
/// flush sets exact).
#[derive(Debug, Clone)]
pub struct PersistentHeap {
    cursor: u64,
    capacity: u64,
}

impl PersistentHeap {
    /// A heap spanning `[0, capacity)`.
    pub fn new(capacity: u64) -> Self {
        PersistentHeap {
            cursor: 0,
            capacity,
        }
    }

    /// Allocate a typed array of `len` elements.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfPersistentMemory`] if the heap is exhausted.
    pub fn alloc<T: Scalar>(&mut self, len: usize) -> Result<PArray<T>, OutOfPersistentMemory> {
        let bytes = (len * T::SIZE) as u64;
        let aligned = self.cursor.next_multiple_of(LINE_BYTES as u64);
        if aligned + bytes > self.capacity {
            return Err(OutOfPersistentMemory {
                requested: bytes,
                available: self.capacity.saturating_sub(aligned),
            });
        }
        let base = Addr(aligned);
        self.cursor = aligned + bytes;
        Ok(PArray::from_raw(base, len))
    }

    /// Bytes allocated so far (including alignment padding).
    pub fn used(&self) -> u64 {
        self.cursor
    }

    /// Remaining capacity in bytes.
    pub fn remaining(&self) -> u64 {
        self.capacity - self.cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nvmm_line_roundtrip() {
        let mut n = Nvmm::new(4096);
        let mut line = [0u8; LINE_BYTES];
        for (i, b) in line.iter_mut().enumerate() {
            *b = i as u8;
        }
        n.write_line(LineAddr(3), &line);
        let mut out = [0u8; LINE_BYTES];
        n.read_line(LineAddr(3), &mut out);
        assert_eq!(line, out);
        // Neighbours untouched.
        n.read_line(LineAddr(2), &mut out);
        assert_eq!(out, [0u8; LINE_BYTES]);
    }

    #[test]
    fn write_words_persists_only_selected_words() {
        let mut n = Nvmm::new(4096);
        let mut old = [0u8; LINE_BYTES];
        for (i, b) in old.iter_mut().enumerate() {
            *b = 100 + (i / 8) as u8;
        }
        n.write_line(LineAddr(2), &old);
        let new = [7u8; LINE_BYTES];
        // Words 0 and 5 persist; the rest of the line keeps its old data.
        n.write_words(LineAddr(2), &new, 0b0010_0001);
        let mut out = [0u8; LINE_BYTES];
        n.read_line(LineAddr(2), &mut out);
        for w in 0..WORDS_PER_LINE {
            let expect = if w == 0 || w == 5 { 7u8 } else { 100 + w as u8 };
            assert_eq!(out[8 * w..8 * w + 8], [expect; 8], "word {w}");
        }
        // Mask 0 writes nothing, mask 0xFF is a full-line write.
        n.write_words(LineAddr(2), &new, 0);
        n.read_line(LineAddr(2), &mut out);
        assert_eq!(out[8..16], [101u8; 8]);
        n.write_words(LineAddr(2), &new, 0xFF);
        n.read_line(LineAddr(2), &mut out);
        assert_eq!(out, new);
    }

    #[test]
    fn write_words_on_forked_image_stays_isolated() {
        let mut n = Nvmm::new(4096);
        n.write_line(LineAddr(1), &[3u8; LINE_BYTES]);
        let mut f = n.fork();
        f.write_words(LineAddr(1), &[9u8; LINE_BYTES], 0b0000_0001);
        let mut out = [0u8; LINE_BYTES];
        f.read_line(LineAddr(1), &mut out);
        assert_eq!(out[0..8], [9u8; 8]);
        assert_eq!(out[8..], [3u8; LINE_BYTES - 8][..]);
        n.read_line(LineAddr(1), &mut out);
        assert_eq!(out, [3u8; LINE_BYTES], "original unaffected");
    }

    #[test]
    fn poison_reads_as_pattern_until_scrubbed() {
        let mut n = Nvmm::new(4096);
        n.write_line(LineAddr(4), &[1u8; LINE_BYTES]);
        n.poison_line(LineAddr(4));
        assert!(n.is_poisoned(LineAddr(4)));
        assert_eq!(n.poisoned_count(), 1);
        assert_eq!(n.poisoned_lines(), vec![LineAddr(4)]);
        let mut out = [0u8; LINE_BYTES];
        n.read_line(LineAddr(4), &mut out);
        assert_eq!(out, [POISON_BYTE; LINE_BYTES]);
        // A full-line writeback re-programs the cells and scrubs.
        n.write_line(LineAddr(4), &[2u8; LINE_BYTES]);
        assert!(!n.is_poisoned(LineAddr(4)));
        n.read_line(LineAddr(4), &mut out);
        assert_eq!(out, [2u8; LINE_BYTES]);
    }

    #[test]
    fn poison_travels_with_forks_and_torn_writes_scrub() {
        let mut n = Nvmm::new(4096);
        n.poison_line(LineAddr(7));
        let mut f = n.fork();
        assert!(f.is_poisoned(LineAddr(7)));
        f.write_words(LineAddr(7), &[5u8; LINE_BYTES], 0b0000_0010);
        assert!(!f.is_poisoned(LineAddr(7)), "partial write scrubs too");
        let mut out = [0u8; LINE_BYTES];
        f.read_line(LineAddr(7), &mut out);
        assert_eq!(out[8..16], [5u8; 8]);
        assert_eq!(out[0..8], [POISON_BYTE; 8], "unwritten words keep pattern");
        assert!(n.is_poisoned(LineAddr(7)), "original still poisoned");
    }

    #[test]
    fn poison_word_matches_pattern() {
        assert_eq!(POISON_WORD.to_le_bytes(), [POISON_BYTE; 8]);
    }

    #[test]
    fn nvmm_poke_peek() {
        let mut n = Nvmm::new(4096);
        n.poke_bytes(Addr(100), &[1, 2, 3, 4]);
        let mut out = [0u8; 4];
        n.peek_bytes(Addr(100), &mut out);
        assert_eq!(out, [1, 2, 3, 4]);
    }

    #[test]
    fn fork_is_isolated_and_cheap() {
        let mut n = Nvmm::new(4096);
        n.poke_bytes(Addr(64), &[9, 9, 9]);
        let mut f = n.fork();
        assert!(n.is_shared() && f.is_shared());
        assert_eq!(
            f.overlay_lines(),
            0,
            "fork of a flat image carries no overlay"
        );
        // Writes on the fork land in its overlay and are invisible to the
        // original (and vice versa).
        f.poke_bytes(Addr(64), &[1, 2, 3]);
        let mut line = [0xabu8; LINE_BYTES];
        f.write_line(LineAddr(9), &line);
        let mut out = [0u8; 3];
        n.peek_bytes(Addr(64), &mut out);
        assert_eq!(out, [9, 9, 9]);
        f.peek_bytes(Addr(64), &mut out);
        assert_eq!(out, [1, 2, 3]);
        n.read_line(LineAddr(9), &mut line);
        assert_eq!(line, [0u8; LINE_BYTES]);
        assert_eq!(f.overlay_lines(), 2);
        // Dropping the original lets the fork flatten on its next write.
        drop(n);
        f.poke_bytes(Addr(0), &[5]);
        assert_eq!(f.overlay_lines(), 0);
        assert!(!f.is_shared());
        f.peek_bytes(Addr(64), &mut out);
        assert_eq!(out, [1, 2, 3], "overlay contents survive flattening");
    }

    #[test]
    fn forked_peek_straddles_overlay_boundary() {
        let mut n = Nvmm::new(4096);
        n.poke_bytes(Addr(60), &[1, 1, 1, 1, 2, 2, 2, 2]);
        let mut f = n.fork();
        // Overwrite only the second line; a straddling peek must stitch
        // base and overlay bytes together.
        f.poke_bytes(Addr(64), &[7, 7, 7, 7]);
        let mut out = [0u8; 8];
        f.peek_bytes(Addr(60), &mut out);
        assert_eq!(out, [1, 1, 1, 1, 7, 7, 7, 7]);
    }

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(f64::from_bits64(1.25f64.to_bits64()), 1.25);
        assert_eq!(u64::from_bits64(u64::MAX.to_bits64()), u64::MAX);
        assert_eq!(u32::from_bits64(12345u32.to_bits64()), 12345);
    }

    #[test]
    fn heap_alignment_and_exhaustion() {
        let mut h = PersistentHeap::new(256);
        let a = h.alloc::<f64>(3).unwrap(); // 24 bytes at 0
        assert_eq!(a.base(), Addr(0));
        let b = h.alloc::<u32>(1).unwrap(); // next line
        assert_eq!(b.base(), Addr(64));
        assert!(h.alloc::<f64>(1000).is_err());
        let err = h.alloc::<f64>(1000).unwrap_err();
        assert!(err.to_string().contains("out of persistent memory"));
    }

    #[test]
    fn parray_addressing() {
        let mut h = PersistentHeap::new(1 << 16);
        let a = h.alloc::<f64>(100).unwrap();
        assert_eq!(a.len(), 100);
        assert!(!a.is_empty());
        assert_eq!(a.addr(0), a.base());
        assert_eq!(a.addr(1).0 - a.addr(0).0, 8);
        assert_eq!(a.bytes(), 800);
        assert_eq!(a.lines().count(), 800usize.div_ceil(64));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn parray_bounds_check() {
        let mut h = PersistentHeap::new(1 << 16);
        let a = h.alloc::<u32>(4).unwrap();
        let _ = a.addr(4);
    }

    #[test]
    fn lines_of_range_spans_correctly() {
        let mut h = PersistentHeap::new(1 << 16);
        let a = h.alloc::<f64>(64).unwrap(); // 512 bytes = 8 lines
        let all: Vec<_> = a.lines_of_range(0, 64).collect();
        assert_eq!(all.len(), 8);
        let one: Vec<_> = a.lines_of_range(0, 8).collect();
        assert_eq!(one.len(), 1);
        let straddle: Vec<_> = a.lines_of_range(7, 2).collect();
        assert_eq!(straddle.len(), 2);
    }
}
