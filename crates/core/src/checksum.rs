//! Software error-detection codes for Lazy Persistency regions
//! (Section III-D of the paper).
//!
//! A Lazy Persistency region computes a running checksum over every value it
//! stores and writes the final checksum to a persistent table. After a
//! failure, recovery recomputes the checksum from whatever data survived in
//! NVMM; a mismatch means some store (or the checksum itself) did not
//! persist, and the region must be recomputed.
//!
//! The paper evaluates four codes, all implemented here, plus a CRC-32
//! extension:
//!
//! * **Parity** — XOR of all value bit patterns: cheapest, weakest.
//! * **Modular** — wrapping sum of all value bit patterns: the paper's
//!   default (accuracy ≈ Adler-32 at a fraction of the cost).
//! * **Adler-32** — the zlib checksum over the value bytes: strongest of
//!   the paper's single codes, noticeably more expensive.
//! * **Modular ∥ Parity** — both in parallel for a lower false-negative
//!   rate at higher cost (evaluated in Figure 15(b)).
//! * **CRC-32** — the "stronger checksum" option Section III-D points
//!   anyone worried about false negatives toward.
//!
//! CRC-32 folds a whole 64-bit word per step with slicing-by-8 tables
//! (built by a `const fn`): the eight bytes' contributions are eight
//! independent table lookups XORed together, where the classic table walk
//! makes each byte wait for the register the previous byte left. The
//! register after every word is bit-identical to the byte walk's, so
//! nothing persisted or compared changes. LP+par recovery re-folds a
//! whole region per candidate line in its rung-1 mismatch scan; an
//! incremental fold would patch the stored CRC by the candidate's delta
//! instead, but that needs GF(2) shift-and-combine algebra for every
//! line offset and speeds up only the scan. The word fold speeds every
//! CRC-32 fold — forward stores, audits, sinks and the scan — with
//! nothing but table lookups.

pub mod accuracy;

/// Which error-detection code a region uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChecksumKind {
    /// XOR of all stored values.
    Parity,
    /// Wrapping sum of all stored values (paper default).
    Modular,
    /// Adler-32 over the bytes of all stored values.
    Adler32,
    /// Modular and Parity computed in parallel.
    ModularParity,
    /// CRC-32 (reflected, polynomial `0xEDB88320`) over the value bytes —
    /// a stronger code than any the paper evaluates, kept as the
    /// "anyone concerned with false negatives can employ a stronger
    /// checksum" extension Section III-D invites.
    Crc32,
}

impl ChecksumKind {
    /// All kinds, in the order Figure 15(b) sweeps them (plus the CRC-32
    /// extension).
    pub const ALL: [ChecksumKind; 5] = [
        ChecksumKind::Modular,
        ChecksumKind::Parity,
        ChecksumKind::Adler32,
        ChecksumKind::ModularParity,
        ChecksumKind::Crc32,
    ];

    /// Modelled ALU operations per `update` call, charged to the simulated
    /// core so checksum choice shows up in execution time as in Figure
    /// 15(b): parity/modular are single ops, Adler-32 walks the value's
    /// bytes (amortized across SIMD lanes), and the parallel combination
    /// is the costliest (matching the paper's 3.4% vs Adler's ~1%).
    pub fn cost_ops(self) -> u64 {
        match self {
            ChecksumKind::Parity => 1,
            ChecksumKind::Modular => 1,
            ChecksumKind::Adler32 => 6,
            ChecksumKind::ModularParity => 10,
            ChecksumKind::Crc32 => 8,
        }
    }

    /// Short display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            ChecksumKind::Parity => "parity",
            ChecksumKind::Modular => "modular",
            ChecksumKind::Adler32 => "adler32",
            ChecksumKind::ModularParity => "modular+parity",
            ChecksumKind::Crc32 => "crc32",
        }
    }
}

impl std::fmt::Display for ChecksumKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

const ADLER_MOD: u32 = 65_521;

/// Reflected CRC-32 slicing-by-8 tables (polynomial `0xEDB88320`),
/// built at compile time. `CRC_TABLES[0]` is the classic byte table;
/// `CRC_TABLES[k][n]` is the contribution of byte `n` to the register
/// once `k` zero bytes have followed it.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut n = 0usize;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][n] = c;
        n += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut n = 0;
        while n < 256 {
            let prev = t[k - 1][n];
            t[k][n] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            n += 1;
        }
        k += 1;
    }
    t
}

/// Fold one word's little-endian bytes into a CRC-32 register: the byte
/// walk's eight dependent steps as eight independent lookups.
#[inline]
fn crc32_word(crc: u32, w: u64) -> u32 {
    let lo = crc ^ w as u32;
    let hi = (w >> 32) as u32;
    let t = &CRC_TABLES;
    t[7][(lo & 0xff) as usize]
        ^ t[6][((lo >> 8) & 0xff) as usize]
        ^ t[5][((lo >> 16) & 0xff) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xff) as usize]
        ^ t[2][((hi >> 8) & 0xff) as usize]
        ^ t[1][((hi >> 16) & 0xff) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// A running checksum over the 64-bit bit patterns of stored values.
///
/// # Examples
///
/// ```
/// use lp_core::checksum::{ChecksumKind, RunningChecksum};
/// let mut ck = RunningChecksum::new(ChecksumKind::Modular);
/// ck.update(1.0f64.to_bits());
/// ck.update(2.0f64.to_bits());
/// let saved = ck.value();
///
/// // Recomputing over the same values matches...
/// let mut again = RunningChecksum::new(ChecksumKind::Modular);
/// again.update(1.0f64.to_bits());
/// again.update(2.0f64.to_bits());
/// assert_eq!(again.value(), saved);
///
/// // ...but a lost store does not.
/// let mut lost = RunningChecksum::new(ChecksumKind::Modular);
/// lost.update(1.0f64.to_bits());
/// lost.update(0.0f64.to_bits());
/// assert_ne!(lost.value(), saved);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunningChecksum {
    /// See [`ChecksumKind::Parity`].
    Parity {
        /// Running XOR.
        x: u64,
    },
    /// See [`ChecksumKind::Modular`].
    Modular {
        /// Running wrapping sum.
        sum: u64,
    },
    /// See [`ChecksumKind::Adler32`].
    Adler32 {
        /// Adler `a` accumulator.
        a: u32,
        /// Adler `b` accumulator.
        b: u32,
    },
    /// See [`ChecksumKind::ModularParity`].
    ModularParity {
        /// Running wrapping sum.
        sum: u64,
        /// Running XOR.
        x: u64,
    },
    /// See [`ChecksumKind::Crc32`].
    Crc32 {
        /// Running CRC register (pre-inversion).
        crc: u32,
    },
}

impl RunningChecksum {
    /// Fresh checksum of the given kind (call at region entry — the
    /// `ResetCheckSum()` of Figure 8).
    pub fn new(kind: ChecksumKind) -> Self {
        match kind {
            ChecksumKind::Parity => RunningChecksum::Parity { x: 0 },
            ChecksumKind::Modular => RunningChecksum::Modular { sum: 0 },
            ChecksumKind::Adler32 => RunningChecksum::Adler32 { a: 1, b: 0 },
            ChecksumKind::ModularParity => RunningChecksum::ModularParity { sum: 0, x: 0 },
            ChecksumKind::Crc32 => RunningChecksum::Crc32 { crc: 0xFFFF_FFFF },
        }
    }

    /// The kind this checksum was created with.
    pub fn kind(&self) -> ChecksumKind {
        match self {
            RunningChecksum::Parity { .. } => ChecksumKind::Parity,
            RunningChecksum::Modular { .. } => ChecksumKind::Modular,
            RunningChecksum::Adler32 { .. } => ChecksumKind::Adler32,
            RunningChecksum::ModularParity { .. } => ChecksumKind::ModularParity,
            RunningChecksum::Crc32 { .. } => ChecksumKind::Crc32,
        }
    }

    /// Fold a stored value's 64-bit pattern into the checksum (the
    /// `UpdateCheckSum()` of Figure 8).
    #[inline]
    pub fn update(&mut self, bits: u64) {
        match self {
            RunningChecksum::Parity { x } => *x ^= bits,
            RunningChecksum::Modular { sum } => *sum = sum.wrapping_add(bits),
            RunningChecksum::Adler32 { a, b } => {
                for byte in bits.to_le_bytes() {
                    *a = (*a + byte as u32) % ADLER_MOD;
                    *b = (*b + *a) % ADLER_MOD;
                }
            }
            RunningChecksum::ModularParity { sum, x } => {
                *sum = sum.wrapping_add(bits);
                *x ^= bits;
            }
            RunningChecksum::Crc32 { crc } => *crc = crc32_word(*crc, bits),
        }
    }

    /// Fold a run of 64-bit patterns into the checksum in one call — the
    /// multi-lane bulk path for recovery-side and audit-side scans.
    ///
    /// Bit-identical to calling [`RunningChecksum::update`] once per word,
    /// including across arbitrary stream splits: the carried state is the
    /// same reduced accumulator either way, so any interleaving of
    /// `update` and `update_slice` calls over the same word sequence
    /// yields the same value.
    ///
    /// * Parity / Modular (and the parallel combination) fold four
    ///   independent u64 lanes and recombine — XOR and wrapping addition
    ///   are associative and commutative mod 2⁶⁴, so recombination is
    ///   exact, not approximate.
    /// * Adler-32 uses SWAR u16-lane prefix sums to get each word's byte
    ///   sum and position-weighted byte sum in a handful of u64 ops, and
    ///   defers the modulo across a chunk: the exact integer accumulators
    ///   stay far below u64 overflow, and one reduction per chunk is
    ///   congruent to the scalar per-byte modulo chain.
    /// * CRC-32's feedback makes each word depend on the previous register
    ///   value, so it folds word by word through the slicing-by-8 tables
    ///   (module docs).
    pub fn update_slice(&mut self, words: &[u64]) {
        match self {
            RunningChecksum::Parity { x } => *x ^= xor_lanes(words),
            RunningChecksum::Modular { sum } => *sum = sum.wrapping_add(sum_lanes(words)),
            RunningChecksum::Adler32 { a, b } => adler_bulk(a, b, words),
            RunningChecksum::ModularParity { sum, x } => {
                *sum = sum.wrapping_add(sum_lanes(words));
                *x ^= xor_lanes(words);
            }
            RunningChecksum::Crc32 { crc } => {
                *crc = words.iter().fold(*crc, |c, &w| crc32_word(c, w));
            }
        }
    }

    /// The checksum value to persist (the `GetCheckSum()` of Figure 8).
    ///
    /// Single codes fold to 32 bits like the paper's table entries; the
    /// parallel combination packs modular in the low half and parity in
    /// the high half.
    pub fn value(&self) -> u64 {
        match self {
            RunningChecksum::Parity { x } => fold32(*x) as u64,
            RunningChecksum::Modular { sum } => {
                ((*sum as u32).wrapping_add((*sum >> 32) as u32)) as u64
            }
            RunningChecksum::Adler32 { a, b } => (((*b) << 16) | (*a & 0xffff)) as u64,
            RunningChecksum::ModularParity { sum, x } => {
                let m = (*sum as u32).wrapping_add((*sum >> 32) as u32) as u64;
                let p = fold32(*x) as u64;
                (p << 32) | m
            }
            RunningChecksum::Crc32 { crc } => (*crc ^ 0xFFFF_FFFF) as u64,
        }
    }
}

#[inline]
fn fold32(x: u64) -> u32 {
    (x as u32) ^ ((x >> 32) as u32)
}

/// XOR of all words, accumulated in four independent u64 lanes. XOR is
/// associative and commutative, so lane recombination is exact.
fn xor_lanes(words: &[u64]) -> u64 {
    let mut lanes = [0u64; 4];
    let mut chunks = words.chunks_exact(4);
    for c in chunks.by_ref() {
        lanes[0] ^= c[0];
        lanes[1] ^= c[1];
        lanes[2] ^= c[2];
        lanes[3] ^= c[3];
    }
    let mut x = lanes[0] ^ lanes[1] ^ lanes[2] ^ lanes[3];
    for &w in chunks.remainder() {
        x ^= w;
    }
    x
}

/// Wrapping sum of all words in four independent u64 lanes — wrapping
/// addition is associative and commutative mod 2⁶⁴, so this matches the
/// sequential sum exactly.
fn sum_lanes(words: &[u64]) -> u64 {
    let mut lanes = [0u64; 4];
    let mut chunks = words.chunks_exact(4);
    for c in chunks.by_ref() {
        lanes[0] = lanes[0].wrapping_add(c[0]);
        lanes[1] = lanes[1].wrapping_add(c[1]);
        lanes[2] = lanes[2].wrapping_add(c[2]);
        lanes[3] = lanes[3].wrapping_add(c[3]);
    }
    let mut sum = lanes[0]
        .wrapping_add(lanes[1])
        .wrapping_add(lanes[2])
        .wrapping_add(lanes[3]);
    for &w in chunks.remainder() {
        sum = sum.wrapping_add(w);
    }
    sum
}

/// Words per deferred-modulo Adler chunk. Between reductions `a` grows by
/// at most 2040 per word and `b` by `8·a + 9180`, so after `K` words
/// `b ≲ 8160·K² + 5.4e5·K`; at `K = 2²⁰` that is ≈ 9×10¹⁵, five hundred
/// times under `u64::MAX`.
const ADLER_CHUNK_WORDS: usize = 1 << 20;

/// Adler-32 over a run of little-endian u64 words with per-word SWAR byte
/// sums and chunk-deferred modulo. Exactly congruent to the per-byte
/// scalar chain: every addition is exact in u64 within a chunk, and the
/// modulo is a ring homomorphism, so reducing once per chunk lands on the
/// same residues the step-by-step reduction keeps.
fn adler_bulk(a: &mut u32, b: &mut u32, words: &[u64]) {
    let (mut au, mut bu) = (u64::from(*a), u64::from(*b));
    for chunk in words.chunks(ADLER_CHUNK_WORDS) {
        for &w in chunk {
            let (s1, ws) = adler_word_sums(w);
            bu += 8 * au + ws;
            au += s1;
        }
        au %= u64::from(ADLER_MOD);
        bu %= u64::from(ADLER_MOD);
    }
    *a = au as u32;
    *b = bu as u32;
}

/// SWAR byte sums of one little-endian word: `(Σ dᵢ, Σ (8-i)·dᵢ)` for
/// bytes `d₀..d₇` in feed order (least-significant first — the order
/// [`RunningChecksum::update`] walks `to_le_bytes`).
///
/// Even/odd bytes are spread into u16 lanes; multiplying by
/// `0x0001_0001_0001_0001` turns each lane into a prefix sum (lane sums
/// stay ≤ 4·255, so no carry crosses lanes), the top lane is the plain
/// byte sum, and the sum of all four lanes is `Σ (4-i)·vᵢ` — from which
/// both weighted sums fall out:
/// even positions `2i` have weight `8-2i = 2(4-i)`, odd positions `2i+1`
/// have weight `7-2i = 2(4-i) - 1`.
#[inline]
fn adler_word_sums(w: u64) -> (u64, u64) {
    const LO_BYTES: u64 = 0x00FF_00FF_00FF_00FF;
    const LANE_ONES: u64 = 0x0001_0001_0001_0001;
    let even = w & LO_BYTES;
    let odd = (w >> 8) & LO_BYTES;
    let pe = even.wrapping_mul(LANE_ONES);
    let po = odd.wrapping_mul(LANE_ONES);
    let se = pe >> 48; // Σ even bytes
    let so = po >> 48; // Σ odd bytes
    let s4e = sum_u16_lanes(pe); // Σ (4-i)·evenᵢ
    let s4o = sum_u16_lanes(po); // Σ (4-i)·oddᵢ
    (se + so, 2 * s4e + 2 * s4o - so)
}

#[inline]
fn sum_u16_lanes(x: u64) -> u64 {
    (x & 0xFFFF) + ((x >> 16) & 0xFFFF) + ((x >> 32) & 0xFFFF) + (x >> 48)
}

/// Checksum a slice of `f64` values in one call (recovery-side helper).
///
/// # Examples
///
/// ```
/// use lp_core::checksum::{checksum_f64s, ChecksumKind};
/// let a = checksum_f64s(ChecksumKind::Modular, &[1.0, 2.0, 3.0]);
/// let b = checksum_f64s(ChecksumKind::Modular, &[1.0, 2.0, 3.0]);
/// assert_eq!(a, b);
/// ```
pub fn checksum_f64s(kind: ChecksumKind, values: &[f64]) -> u64 {
    let mut ck = RunningChecksum::new(kind);
    // Stage bit patterns through a stack buffer so the u64-lane bulk path
    // does the folding without a heap allocation.
    let mut buf = [0u64; 256];
    for chunk in values.chunks(buf.len()) {
        for (slot, v) in buf.iter_mut().zip(chunk) {
            *slot = v.to_bits();
        }
        ck.update_slice(&buf[..chunk.len()]);
    }
    ck.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds() -> impl Iterator<Item = ChecksumKind> {
        ChecksumKind::ALL.into_iter()
    }

    #[test]
    fn deterministic_for_same_sequence() {
        for kind in all_kinds() {
            let mut a = RunningChecksum::new(kind);
            let mut b = RunningChecksum::new(kind);
            for v in [1u64, 99, 0, u64::MAX, 42] {
                a.update(v);
                b.update(v);
            }
            assert_eq!(a.value(), b.value(), "{kind}");
        }
    }

    #[test]
    fn detects_single_changed_value() {
        for kind in all_kinds() {
            let mut a = RunningChecksum::new(kind);
            let mut b = RunningChecksum::new(kind);
            for v in [10u64, 20, 30] {
                a.update(v);
            }
            for v in [10u64, 21, 30] {
                b.update(v);
            }
            assert_ne!(a.value(), b.value(), "{kind} missed a changed value");
        }
    }

    #[test]
    fn detects_missing_value_vs_zero() {
        // A lost store typically reads back the old value (often 0).
        for kind in all_kinds() {
            let mut a = RunningChecksum::new(kind);
            let mut b = RunningChecksum::new(kind);
            for v in [7u64, 8, 9] {
                a.update(v);
            }
            for v in [7u64, 0, 9] {
                b.update(v);
            }
            assert_ne!(a.value(), b.value(), "{kind} missed a dropped value");
        }
    }

    #[test]
    fn parity_is_order_independent_modular_commutative() {
        // Associativity matters: regions may persist out of order, but the
        // *values within one region* are always folded in program order by
        // both normal execution and recovery, so order sensitivity is
        // allowed. Still, parity and modular happen to be commutative:
        let mut a = RunningChecksum::new(ChecksumKind::Modular);
        let mut b = RunningChecksum::new(ChecksumKind::Modular);
        a.update(1);
        a.update(2);
        b.update(2);
        b.update(1);
        assert_eq!(a.value(), b.value());
    }

    #[test]
    fn adler32_matches_reference_for_known_input() {
        // Adler-32 of "Wikipedia" is 0x11E60398 (well-known test vector).
        // Our updates take u64s, so feed 8 bytes then 1 byte via two
        // updates is not byte-exact; instead verify against a direct
        // byte-level reference implementation on the same u64 stream.
        fn reference(words: &[u64]) -> u64 {
            let (mut a, mut b) = (1u32, 0u32);
            for w in words {
                for byte in w.to_le_bytes() {
                    a = (a + byte as u32) % 65_521;
                    b = (b + a) % 65_521;
                }
            }
            (((b) << 16) | (a & 0xffff)) as u64
        }
        let words = [0x0123_4567_89ab_cdefu64, 42, u64::MAX];
        let mut ck = RunningChecksum::new(ChecksumKind::Adler32);
        for w in words {
            ck.update(w);
        }
        assert_eq!(ck.value(), reference(&words));
    }

    #[test]
    fn modular_parity_packs_both_halves() {
        let mut ck = RunningChecksum::new(ChecksumKind::ModularParity);
        ck.update(5);
        ck.update(9);
        let v = ck.value();
        let mut m = RunningChecksum::new(ChecksumKind::Modular);
        m.update(5);
        m.update(9);
        let mut p = RunningChecksum::new(ChecksumKind::Parity);
        p.update(5);
        p.update(9);
        assert_eq!(v & 0xffff_ffff, m.value());
        assert_eq!(v >> 32, p.value());
    }

    #[test]
    fn parity_misses_duplicate_pair_but_modular_catches_it() {
        // Classic parity weakness: two identical corruptions cancel.
        let good = [3u64, 3, 5];
        let bad = [4u64, 4, 5]; // both elements corrupted identically
        let mut pg = RunningChecksum::new(ChecksumKind::Parity);
        let mut pb = RunningChecksum::new(ChecksumKind::Parity);
        let mut mg = RunningChecksum::new(ChecksumKind::Modular);
        let mut mb = RunningChecksum::new(ChecksumKind::Modular);
        for v in good {
            pg.update(v);
            mg.update(v);
        }
        for v in bad {
            pb.update(v);
            mb.update(v);
        }
        assert_eq!(pg.value(), pb.value(), "parity cancels pairs");
        assert_ne!(mg.value(), mb.value(), "modular does not");
    }

    #[test]
    fn crc32_matches_known_vector() {
        // CRC-32 of the bytes 00..=07 (one little-endian u64).
        let mut ck = RunningChecksum::new(ChecksumKind::Crc32);
        ck.update(u64::from_le_bytes([0, 1, 2, 3, 4, 5, 6, 7]));
        // Reference computed with the bitwise definition:
        fn reference(bytes: &[u8]) -> u32 {
            let mut c = 0xFFFF_FFFFu32;
            for &b in bytes {
                c ^= b as u32;
                for _ in 0..8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
            }
            c ^ 0xFFFF_FFFF
        }
        assert_eq!(ck.value(), reference(&[0, 1, 2, 3, 4, 5, 6, 7]) as u64);
    }

    #[test]
    fn kind_roundtrip_and_cost() {
        for kind in all_kinds() {
            assert_eq!(RunningChecksum::new(kind).kind(), kind);
            assert!(kind.cost_ops() >= 1);
            assert!(!kind.name().is_empty());
        }
        assert!(ChecksumKind::Adler32.cost_ops() > ChecksumKind::Modular.cost_ops());
        assert!(ChecksumKind::ModularParity.cost_ops() > ChecksumKind::Modular.cost_ops());
    }

    #[test]
    fn empty_region_checksums_are_stable() {
        for kind in all_kinds() {
            let a = RunningChecksum::new(kind).value();
            let b = RunningChecksum::new(kind).value();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn helper_matches_manual_loop() {
        let vals = [1.5f64, -2.25, 1e300];
        let mut ck = RunningChecksum::new(ChecksumKind::Adler32);
        for v in vals {
            ck.update(v.to_bits());
        }
        assert_eq!(checksum_f64s(ChecksumKind::Adler32, &vals), ck.value());
    }

    /// Deterministic xorshift stream for the lane/scalar property tests
    /// (std-only; no test-time RNG dependency).
    fn word_stream(seed: u64, len: usize) -> Vec<u64> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            })
            .collect()
    }

    #[test]
    fn lane_bulk_matches_scalar_for_random_streams() {
        // Lengths straddle the lane width (4), the SWAR word shape, and
        // off-by-one remainders; values include the byte-overflow-prone
        // all-0xFF pattern.
        for kind in all_kinds() {
            for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 31, 256, 1000] {
                for seed in [1u64, 0xdead_beef, 0x1234_5678_9abc_def0] {
                    let mut words = word_stream(seed ^ len as u64, len);
                    if len > 2 {
                        words[0] = u64::MAX;
                        words[len / 2] = 0;
                    }
                    let mut scalar = RunningChecksum::new(kind);
                    for &w in &words {
                        scalar.update(w);
                    }
                    let mut lane = RunningChecksum::new(kind);
                    lane.update_slice(&words);
                    assert_eq!(scalar, lane, "{kind} state diverged at len {len}");
                    assert_eq!(scalar.value(), lane.value(), "{kind} value at len {len}");
                }
            }
        }
    }

    #[test]
    fn lane_bulk_split_resume_matches_one_shot() {
        // A stream may arrive as any mix of per-word updates and bulk
        // slices; every split point must land on the same state.
        for kind in all_kinds() {
            let words = word_stream(0x5eed, 97);
            let mut oneshot = RunningChecksum::new(kind);
            oneshot.update_slice(&words);
            for split in [0usize, 1, 3, 8, 50, 96, 97] {
                let (head, tail) = words.split_at(split);
                let mut resumed = RunningChecksum::new(kind);
                resumed.update_slice(head);
                resumed.update_slice(tail);
                assert_eq!(oneshot, resumed, "{kind} split at {split}");

                let mut mixed = RunningChecksum::new(kind);
                for &w in head {
                    mixed.update(w);
                }
                mixed.update_slice(tail);
                assert_eq!(oneshot, mixed, "{kind} scalar head, bulk tail at {split}");
            }
        }
    }

    /// The byte-at-a-time table walk the word fold replaced, kept as the
    /// reference it must match bit for bit.
    fn crc32_bytewise(mut crc: u32, words: &[u64]) -> u32 {
        for &w in words {
            for byte in w.to_le_bytes() {
                crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(byte)) & 0xff) as usize];
            }
        }
        crc
    }

    #[test]
    fn crc32_word_fold_matches_bytewise_reference() {
        // Random streams, with the stream cut at random points and each
        // piece fed through `update` or `update_slice` alternately.
        for seed in [1u64, 0xdead_beef, 0x1234_5678_9abc_def0, 0xffff_ffff] {
            for len in [0usize, 1, 2, 7, 8, 9, 100, 1000] {
                let words = word_stream(seed ^ ((len as u64) << 20), len);
                let expect = RunningChecksum::Crc32 {
                    crc: crc32_bytewise(0xFFFF_FFFF, &words),
                };
                let mut whole = RunningChecksum::new(ChecksumKind::Crc32);
                whole.update_slice(&words);
                assert_eq!(whole, expect, "slice, seed {seed:#x} len {len}");
                let mut cuts = word_stream(seed.rotate_left(7), 6)
                    .into_iter()
                    .map(|c| c as usize % (len + 1))
                    .collect::<Vec<_>>();
                cuts.push(len);
                cuts.sort_unstable();
                let mut split = RunningChecksum::new(ChecksumKind::Crc32);
                let mut at = 0;
                for (piece, &cut) in cuts.iter().enumerate() {
                    if piece % 2 == 0 {
                        split.update_slice(&words[at..cut]);
                    } else {
                        words[at..cut].iter().for_each(|&w| split.update(w));
                    }
                    at = cut;
                }
                assert_eq!(split, expect, "cuts {cuts:?}, seed {seed:#x} len {len}");
            }
        }
        // Every byte value alone in every position, and in all eight.
        for b in 0..=255u64 {
            let words: Vec<u64> = (0..8)
                .map(|pos| b << (8 * pos))
                .chain([b * 0x0101_0101_0101_0101])
                .collect();
            for w in words {
                let mut ck = RunningChecksum::new(ChecksumKind::Crc32);
                ck.update(w);
                let crc = crc32_bytewise(0xFFFF_FFFF, &[w]);
                assert_eq!(ck, RunningChecksum::Crc32 { crc }, "word {w:#018x}");
            }
        }
    }

    #[test]
    fn adler_deferred_modulo_survives_saturated_chunks() {
        // All-0xFF words maximize per-word growth of both accumulators —
        // the worst case for the deferred reduction's overflow headroom.
        let words = vec![u64::MAX; 10_000];
        let mut scalar = RunningChecksum::new(ChecksumKind::Adler32);
        for &w in &words {
            scalar.update(w);
        }
        let mut lane = RunningChecksum::new(ChecksumKind::Adler32);
        lane.update_slice(&words);
        assert_eq!(scalar.value(), lane.value());
    }
}
