//! Per-region XOR parity lines and the rung-1 *repair* primitives of the
//! recovery escalation ladder.
//!
//! A [`crate::scheme::Scheme::LazyParity`] region maintains, alongside its
//! running checksum, one 64-byte parity line of eight `u64` lanes: every
//! store folds its bit pattern into lane `(addr / 8) % 8` — the word slot
//! the value occupies within its cache line. Because XOR is an involution,
//! recovery can *reconstruct* any single lost line of a committed region:
//! `lost_lane = parity_lane ⊕ XOR(surviving values in that lane)`. The
//! reconstruction is verified against the region checksum before a single
//! byte is written back, so a stale or partially-persisted parity line can
//! never bless wrong data — it merely fails the repair, and recovery
//! escalates to the next rung (region recompute, then EP re-execution).
//!
//! Parity lanes live in a dedicated persistent [`ParityArena`], one line
//! per region key, published *lazily* at region commit exactly like the
//! checksum table (no flushes, no fences in the failure-free path). The
//! arena starts zeroed — the XOR identity — rather than at a sentinel:
//! absence of parity is indistinguishable from wrong parity, and both are
//! rejected by the checksum verification step.
//!
//! One soundness caveat: the verification step is only probative when the
//! region checksum can actually *distinguish* a wrong reconstruction from
//! the committed data — see [`can_certify`]. Two failure shapes matter:
//!
//! * **Tautology.** Under [`ChecksumKind::Parity`] the checksum *is* the
//!   XOR of the eight parity lanes, so any single-line substitution built
//!   from the parity line folds back to the stored checksum by
//!   construction and the check certifies nothing.
//! * **Transfer cancellation.** When the region carries a *second* error —
//!   a silent single-bit flip elsewhere in the region, exactly what the
//!   media fault campaign injects alongside a poison — reconstruction
//!   XORs that flip into the rebuilt line at the same lane/bit position.
//!   A wrapping sum then changes by `+2^b` on one word and `-2^b` on the
//!   other whenever the two original bits disagree: exact cancellation,
//!   a false certificate, and two silently corrupt words (observed as
//!   corrupt states in the crashmc media campaign before Modular was
//!   refused). [`ChecksumKind::ModularParity`]'s XOR half is tautological,
//!   reducing it to Modular.
//!
//! Position-*sensitive* codes detect the transfer pattern deterministically
//! at the region sizes the kernels use: Adler-32's second accumulator
//! weights each byte by position, so the paired `±d` deltas leave a
//! residue `d·Δpos` that cannot vanish mod the prime 65521 while the
//! region is under 64 KiB; CRC-32 is GF(2)-linear and the error polynomial
//! `x^a + x^b` is never divisible by the CRC polynomial below its period
//! (≈ 2^31 bits). Rung 1 therefore refuses to certify under Parity,
//! Modular, and Modular∥Parity (the ladder escalates straight to rung 2),
//! and accepts Adler-32 (size-guarded) and CRC-32 — which is why
//! [`crate::scheme::Scheme::lazy_parity_default`] pairs the parity arena
//! with CRC-32, the "stronger checksum" Section III-D of the paper points
//! anyone worried about false negatives toward.

use crate::checksum::{ChecksumKind, RunningChecksum};
use crate::table::ChecksumTable;
use lp_sim::addr::{Addr, LineAddr};
use lp_sim::core::CoreCtx;
use lp_sim::machine::Machine;
use lp_sim::mem::{OutOfPersistentMemory, PArray, Scalar, WORDS_PER_LINE};

/// Modelled ALU ops for one parity-lane XOR fold.
pub const PARITY_FOLD_OPS: u64 = 1;

/// The parity lane a persistent address folds into: its word slot within
/// its cache line.
#[inline]
pub fn lane_of(addr: Addr) -> usize {
    (addr.0 as usize / 8) % WORDS_PER_LINE
}

/// Whether `kind` can certify a rung-1 parity reconstruction of a region
/// of `region_words` owned 8-byte words (see the module docs for the
/// derivation). Parity is tautological; Modular and Modular∥Parity fall
/// to transfer cancellation against a coexisting single-bit flip;
/// Adler-32 certifies while its byte-position weights stay distinct mod
/// 65521 (regions under 64 KiB); CRC-32 certifies at any region size the
/// simulator can hold.
pub fn can_certify(kind: ChecksumKind, region_words: usize) -> bool {
    match kind {
        ChecksumKind::Parity | ChecksumKind::Modular | ChecksumKind::ModularParity => false,
        ChecksumKind::Adler32 => region_words.saturating_mul(8) < 65_521,
        ChecksumKind::Crc32 => true,
    }
}

/// A persistent arena of per-region XOR parity lines (eight `u64` lanes —
/// one cache line — per region key), zero-initialized.
///
/// The handle is `Copy`; the lanes live in simulated persistent memory and
/// are written through the timed [`CoreCtx`] API so parity persistence is
/// lazy exactly like the data it summarizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParityArena {
    lanes: PArray<u64>,
}

impl ParityArena {
    /// Allocate an arena with one parity line per region key, zeroed in
    /// the durable image (setup-time, untimed).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfPersistentMemory`] if the persistent heap is full.
    pub fn alloc(machine: &mut Machine, keys: usize) -> Result<Self, OutOfPersistentMemory> {
        let lanes = machine.alloc::<u64>(keys.max(1) * WORDS_PER_LINE)?;
        let arena = ParityArena { lanes };
        arena.reset(machine);
        Ok(arena)
    }

    /// Re-zero every lane (untimed).
    pub fn reset(&self, machine: &mut Machine) {
        for i in 0..self.lanes.len() {
            machine.poke(self.lanes, i, 0);
        }
    }

    /// Number of region keys the arena covers.
    pub fn keys(&self) -> usize {
        self.lanes.len() / WORDS_PER_LINE
    }

    /// Space overhead in bytes.
    pub fn bytes(&self) -> u64 {
        self.lanes.bytes()
    }

    /// The backing persistent array (for address-range tracking).
    pub fn array(&self) -> PArray<u64> {
        self.lanes
    }

    /// Timed lazy store of all eight lanes of `key` (plain stores — the
    /// forward-path publication; persistence happens via natural
    /// eviction).
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of range.
    pub fn store_lanes(&self, ctx: &mut CoreCtx<'_>, key: usize, lanes: &[u64; WORDS_PER_LINE]) {
        for (l, &v) in lanes.iter().enumerate() {
            ctx.store(self.lanes, key * WORDS_PER_LINE + l, v);
        }
    }

    /// Timed load of all eight lanes of `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of range.
    pub fn load_lanes(&self, ctx: &mut CoreCtx<'_>, key: usize) -> [u64; WORDS_PER_LINE] {
        let mut out = [0u64; WORDS_PER_LINE];
        for (l, slot) in out.iter_mut().enumerate() {
            *slot = ctx.load(self.lanes, key * WORDS_PER_LINE + l);
        }
        out
    }

    /// Eagerly persist the parity line of `key` (flush + fence). Recovery
    /// uses this *after* the repaired data it summarizes is fenced — the
    /// R8 ordering invariant.
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of range.
    pub fn persist(&self, ctx: &mut CoreCtx<'_>, key: usize) {
        ctx.clflushopt(self.lanes.addr(key * WORDS_PER_LINE));
        ctx.sfence();
    }

    /// Untimed read of the durable lanes (post-crash inspection in tests).
    pub fn peek_lanes(&self, machine: &Machine, key: usize) -> [u64; WORDS_PER_LINE] {
        let mut out = [0u64; WORDS_PER_LINE];
        for (l, slot) in out.iter_mut().enumerate() {
            *slot = machine.peek(self.lanes, key * WORDS_PER_LINE + l);
        }
        out
    }
}

/// Verdict of a rung-1 parity-repair attempt on one region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairVerdict {
    /// No line of the region is poisoned — nothing for rung 1 to do.
    Clean,
    /// The offending line was reconstructed, re-verified against the
    /// region checksum, and written back durably (scrubbing the poison).
    Repaired,
    /// Reconstruction was impossible (≥ 2 lost lines, partial line
    /// ownership, missing checksum) or failed re-verification. No byte
    /// was written; the caller must escalate to rung 2.
    Failed,
}

/// One region element in checksum fold order: the persistent array it
/// lives in and its index. Regions that interleave several arrays (fft's
/// re/im pair) list their slots across arrays in store order.
pub type Slot<T> = (PArray<T>, usize);

/// The values of one region in fold order, with the elements of a target
/// line replaced by their parity reconstruction. `None` when the region
/// does not fully own the target line's eight words (a partial line can
/// never be scrubbed whole, so reconstruction is refused).
fn reconstruct<T: Scalar>(
    ctx: &mut CoreCtx<'_>,
    parity: &ParityArena,
    key: usize,
    slots: &[Slot<T>],
    target: LineAddr,
) -> Option<Vec<u64>> {
    let mut lanes = parity.load_lanes(ctx, key);
    let mut vals = Vec::with_capacity(slots.len());
    let mut owned = 0usize;
    for &(arr, i) in slots {
        let a = arr.addr(i);
        if a.line() == target {
            owned += 1;
            vals.push(None);
        } else {
            let bits = ctx.load(arr, i).to_bits64();
            lanes[lane_of(a)] ^= bits;
            vals.push(Some(bits));
        }
    }
    ctx.compute(slots.len() as u64 * PARITY_FOLD_OPS);
    if owned != WORDS_PER_LINE {
        return None;
    }
    Some(
        slots
            .iter()
            .zip(vals)
            .map(|(&(arr, i), v)| v.unwrap_or_else(|| lanes[lane_of(arr.addr(i))]))
            .collect(),
    )
}

/// Whether `bits`, folded with `kind` in order, matches the *already
/// loaded* stored table entry `stored`.
fn folds_to(kind: ChecksumKind, bits: &[u64], stored: u64) -> bool {
    let mut ck = RunningChecksum::new(kind);
    ck.update_slice(bits);
    ChecksumTable::sanitize_value(ck.value()) == stored
}

/// Durably write the elements of `target` back from `bits` (the full
/// region image): store all eight words, flush the line, fence. A full
/// dirty-line writeback scrubs poison.
fn write_back_line<T: Scalar>(
    ctx: &mut CoreCtx<'_>,
    slots: &[Slot<T>],
    bits: &[u64],
    target: LineAddr,
) {
    let mut flush_at = None;
    for (&(arr, i), &b) in slots.iter().zip(bits) {
        if arr.addr(i).line() == target {
            ctx.store(arr, i, T::from_bits64(b));
            flush_at.get_or_insert(arr.addr(i));
        }
    }
    if let Some(a) = flush_at {
        ctx.clflushopt(a);
        ctx.sfence();
    }
}

/// Rung 1 of the escalation ladder for a *poisoned* region: localize the
/// poison to one line, reconstruct that line from parity + surviving
/// lines, re-verify against the region checksum, and only then write it
/// back (flushed + fenced, scrubbing the poison).
///
/// `slots` are the region's elements in checksum fold order (across
/// arrays, for regions that interleave several — fft's re/im pair);
/// `poisoned` is the sorted poisoned-line list from
/// [`lp_sim::memsys::MemSystem::poisoned_lines`]. The repair never reads
/// the poisoned line and never writes anything unless the reconstruction
/// verified — a failed attempt is side-effect free, so escalation (and
/// re-entry after a nested crash) always starts from the untouched image.
pub fn try_poison_repair<T: Scalar>(
    ctx: &mut CoreCtx<'_>,
    table: &ChecksumTable,
    parity: &ParityArena,
    key: usize,
    kind: ChecksumKind,
    slots: &[Slot<T>],
    poisoned: &[LineAddr],
) -> RepairVerdict {
    debug_assert_eq!(T::SIZE, 8, "parity lanes assume 8-byte elements");
    if poisoned.is_empty() {
        return RepairVerdict::Clean;
    }
    let mut bad: Option<LineAddr> = None;
    let mut bad_count = 0usize;
    let mut prev: Option<LineAddr> = None;
    for &(arr, i) in slots {
        let line = arr.addr(i).line();
        if prev == Some(line) {
            continue;
        }
        prev = Some(line);
        if poisoned.binary_search(&line).is_ok() && bad != Some(line) {
            bad = Some(line);
            bad_count += 1;
        }
    }
    let Some(target) = bad else {
        return RepairVerdict::Clean;
    };
    // A checksum that cannot distinguish a wrong reconstruction from the
    // committed data (tautology or transfer cancellation — module docs)
    // must not bless one: refuse and let the caller escalate.
    if !can_certify(kind, slots.len()) {
        return RepairVerdict::Failed;
    }
    // XOR parity reconstructs exactly one lost line; a burst that took two
    // region lines is beyond rung 1 by construction.
    if bad_count != 1 {
        return RepairVerdict::Failed;
    }
    let Some(stored) = table.load(ctx, key) else {
        return RepairVerdict::Failed;
    };
    let Some(bits) = reconstruct(ctx, parity, key, slots, target) else {
        return RepairVerdict::Failed;
    };
    ctx.compute(slots.len() as u64 * kind.cost_ops());
    if !folds_to(kind, &bits, stored) {
        return RepairVerdict::Failed;
    }
    write_back_line(ctx, slots, &bits, target);
    RepairVerdict::Repaired
}

/// Rung 1 of the escalation ladder for a region that *failed its checksum
/// audit* without any poisoned line (a silent media flip): scan each
/// fully-owned line as the repair candidate, reconstruct it from parity,
/// and accept the first reconstruction under which the region checksum
/// verifies. Returns `true` when a line was repaired (written back
/// durably); `false` means no single-line substitution explains the
/// mismatch and the caller must escalate to rung 2.
pub fn try_mismatch_repair<T: Scalar>(
    ctx: &mut CoreCtx<'_>,
    table: &ChecksumTable,
    parity: &ParityArena,
    key: usize,
    kind: ChecksumKind,
    slots: &[Slot<T>],
) -> bool {
    debug_assert_eq!(T::SIZE, 8, "parity lanes assume 8-byte elements");
    // Under a non-certifying checksum a wrong candidate substitution can
    // verify (tautology or transfer cancellation — module docs): accepting
    // one would silently corrupt the region. Refuse; the caller escalates.
    if !can_certify(kind, slots.len()) {
        return false;
    }
    let Some(stored) = table.load(ctx, key) else {
        return false;
    };
    let mut lines: Vec<LineAddr> = slots.iter().map(|&(arr, i)| arr.addr(i).line()).collect();
    lines.sort_unstable();
    lines.dedup();
    for &target in &lines {
        let Some(bits) = reconstruct(ctx, parity, key, slots, target) else {
            continue;
        };
        ctx.compute(slots.len() as u64 * kind.cost_ops());
        if folds_to(kind, &bits, stored) {
            write_back_line(ctx, slots, &bits, target);
            return true;
        }
    }
    false
}

#[cfg(test)]
#[allow(clippy::drop_non_drop)] // drop(ctx) ends the &mut Machine borrow explicitly
mod tests {
    use super::*;
    use crate::scheme::{Scheme, SchemeHandles};
    use lp_sim::config::MachineConfig;

    fn machine() -> Machine {
        Machine::new(
            MachineConfig::default()
                .with_cores(1)
                .with_nvmm_bytes(1 << 20),
        )
    }

    /// Run one committed LazyParity region of 32 elements and drain.
    fn committed_region(kind: ChecksumKind) -> (Machine, SchemeHandles, PArray<f64>) {
        let mut m = machine();
        let arr = m.alloc::<f64>(32).unwrap();
        let h = SchemeHandles::alloc(&mut m, Scheme::LazyParity(kind), 4, 1, 0).unwrap();
        let tp = h.thread(0);
        {
            let mut ctx = m.ctx(0);
            let mut rs = tp.begin(&mut ctx, 1);
            for i in 0..32 {
                tp.store(&mut ctx, &mut rs, arr, i, (i as f64) * 1.5 - 3.0);
            }
            tp.commit(&mut ctx, rs);
        }
        m.drain_caches();
        (m, h, arr)
    }

    #[test]
    fn arena_lanes_roundtrip_and_start_zeroed() {
        let mut m = machine();
        let p = ParityArena::alloc(&mut m, 4).unwrap();
        assert_eq!(p.keys(), 4);
        assert_eq!(p.peek_lanes(&m, 2), [0u64; 8]);
        let lanes = [1, 2, 3, 4, 5, 6, 7, 8];
        let mut ctx = m.ctx(0);
        p.store_lanes(&mut ctx, 2, &lanes);
        assert_eq!(p.load_lanes(&mut ctx, 2), lanes);
        p.persist(&mut ctx, 2);
        m.mem_mut().force_crash();
        m.mem_mut().acknowledge_crash();
        assert_eq!(p.peek_lanes(&m, 2), lanes, "persisted lanes survive");
        assert_eq!(p.peek_lanes(&m, 0), [0u64; 8], "others stay zero");
    }

    #[test]
    fn lane_of_is_the_word_slot_within_the_line() {
        for w in 0..8 {
            assert_eq!(lane_of(Addr(640 + w * 8)), w as usize);
        }
    }

    #[test]
    fn poison_repair_reconstructs_bit_identically() {
        for kind in ChecksumKind::ALL {
            let (mut m, h, arr) = committed_region(kind);
            let before: Vec<f64> = (0..32).map(|i| m.peek(arr, i)).collect();
            let line = arr.addr(8).line();
            m.mem_mut().poison_line(line);
            let poisoned = m.mem_mut().poisoned_lines();
            assert_eq!(poisoned.len(), 1);
            let slots = to_slots(arr, &(0..32).collect::<Vec<_>>());
            let mut ctx = m.ctx(0);
            let v = try_poison_repair(&mut ctx, &h.table, &h.parity, 1, kind, &slots, &poisoned);
            if !can_certify(kind, 32) {
                // The checksum cannot certify an XOR reconstruction
                // (tautology or transfer cancellation): rung 1 must
                // refuse, side-effect free.
                assert_eq!(v, RepairVerdict::Failed, "{kind}");
                drop(ctx);
                assert!(m.mem().has_poisoned_lines(), "{kind}: nothing written");
                continue;
            }
            assert_eq!(v, RepairVerdict::Repaired, "{kind}");
            drop(ctx);
            assert!(!m.mem().has_poisoned_lines(), "{kind}: poison scrubbed");
            let after: Vec<f64> = (0..32).map(|i| m.peek(arr, i)).collect();
            assert_eq!(
                before.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                after.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{kind}: reconstruction must be bit-identical"
            );
        }
    }

    #[test]
    fn burst_of_two_region_lines_fails_without_side_effects() {
        let (mut m, h, arr) = committed_region(ChecksumKind::Crc32);
        m.mem_mut().poison_line(arr.addr(0).line());
        m.mem_mut().poison_line(arr.addr(8).line());
        let poisoned = m.mem_mut().poisoned_lines();
        let slots = to_slots(arr, &(0..32).collect::<Vec<_>>());
        let mut ctx = m.ctx(0);
        let v = try_poison_repair(
            &mut ctx,
            &h.table,
            &h.parity,
            1,
            ChecksumKind::Crc32,
            &slots,
            &poisoned,
        );
        assert_eq!(v, RepairVerdict::Failed, "XOR cannot reconstruct 2 lines");
        drop(ctx);
        assert_eq!(
            m.mem().poisoned_lines().len(),
            2,
            "failed repair writes nothing"
        );
    }

    #[test]
    fn missing_checksum_or_unpersisted_parity_refuses_repair() {
        let (mut m, h, arr) = committed_region(ChecksumKind::Crc32);
        m.mem_mut().poison_line(arr.addr(16).line());
        let poisoned = m.mem_mut().poisoned_lines();
        let slots = to_slots(arr, &(0..32).collect::<Vec<_>>());
        // Key 3 was never committed: no checksum entry, repair refuses.
        {
            let mut ctx = m.ctx(0);
            let v = try_poison_repair(
                &mut ctx,
                &h.table,
                &h.parity,
                3,
                ChecksumKind::Crc32,
                &slots,
                &poisoned,
            );
            assert_eq!(v, RepairVerdict::Failed);
        }
        // Wrong parity (zeroed arena under a real checksum): the
        // reconstruction exists but fails re-verification — fail-safe.
        h.parity.reset(&mut m);
        let mut ctx = m.ctx(0);
        let v = try_poison_repair(
            &mut ctx,
            &h.table,
            &h.parity,
            1,
            ChecksumKind::Crc32,
            &slots,
            &poisoned,
        );
        assert_eq!(v, RepairVerdict::Failed, "stale parity is self-checking");
    }

    #[test]
    fn clean_region_reports_clean() {
        // Deliberately a non-certifying kind: a region with no poisoned
        // line must report Clean (not Failed) under *any* checksum, so
        // per-region callers like cholesky can keep scanning.
        let (mut m, h, arr) = committed_region(ChecksumKind::Modular);
        let slots = to_slots(arr, &(0..32).collect::<Vec<_>>());
        let mut ctx = m.ctx(0);
        let v = try_poison_repair(
            &mut ctx,
            &h.table,
            &h.parity,
            1,
            ChecksumKind::Modular,
            &slots,
            &[],
        );
        assert_eq!(v, RepairVerdict::Clean);
    }

    #[test]
    fn mismatch_repair_localizes_a_silent_flip() {
        for kind in ChecksumKind::ALL {
            let (mut m, h, arr) = committed_region(kind);
            let before: Vec<u64> = (0..32).map(|i| m.peek(arr, i).to_bits()).collect();
            // Silently corrupt one word of line 1 in the durable image.
            let garbled = f64::from_bits(before[11] ^ (1 << 17));
            m.poke(arr, 11, garbled);
            let slots = to_slots(arr, &(0..32).collect::<Vec<_>>());
            let mut ctx = m.ctx(0);
            assert!(
                !crate::recovery::region_consistent(
                    &mut ctx,
                    &h.table,
                    1,
                    kind,
                    slots.iter().copied()
                ),
                "{kind}: the flip must be detectable"
            );
            let repaired = try_mismatch_repair(&mut ctx, &h.table, &h.parity, 1, kind, &slots);
            if !can_certify(kind, 32) {
                assert!(!repaired, "{kind}: non-certifying checksum refused");
                drop(ctx);
                let after: Vec<u64> = (0..32).map(|i| m.peek(arr, i).to_bits()).collect();
                assert_eq!(after[11], garbled.to_bits(), "{kind}: nothing written");
                continue;
            }
            assert!(repaired, "{kind}: single-line flip is repairable");
            drop(ctx);
            let after: Vec<u64> = (0..32).map(|i| m.peek(arr, i).to_bits()).collect();
            assert_eq!(before, after, "{kind}: flip repaired bit-identically");
        }
    }

    /// The soundness caveat from the module docs, demonstrated: under a
    /// pure-parity checksum a *wrong* single-line substitution still folds
    /// to the stored value, so were rung 1 to run it would bless garbage.
    /// This pins both the tautology and the refusal that defuses it.
    #[test]
    fn parity_checksum_cannot_certify_its_own_reconstruction() {
        let (mut m, h, arr) = committed_region(ChecksumKind::Parity);
        // Tear the region: corrupt words on *two* different lines, which no
        // single-line repair can explain.
        let a = m.peek(arr, 3).to_bits();
        let b = m.peek(arr, 12).to_bits();
        m.poke(arr, 3, f64::from_bits(a ^ 0xdead));
        m.poke(arr, 12, f64::from_bits(b ^ 0xbeef));
        let slots = to_slots(arr, &(0..32).collect::<Vec<_>>());
        let mut ctx = m.ctx(0);
        // The tautology itself: substituting line 0 from parity makes the
        // XOR fold match the stored checksum even though line 1 is corrupt.
        let stored = h.table.load(&mut ctx, 1).unwrap();
        let bits = reconstruct(&mut ctx, &h.parity, 1, &slots, arr.addr(0).line()).unwrap();
        assert!(
            folds_to(ChecksumKind::Parity, &bits, stored),
            "XOR fold of any parity substitution collapses to the lane XOR"
        );
        // The refusal that keeps the ladder sound.
        assert!(!try_mismatch_repair(
            &mut ctx,
            &h.table,
            &h.parity,
            1,
            ChecksumKind::Parity,
            &slots
        ));
    }

    fn to_slots(arr: PArray<f64>, indices: &[usize]) -> Vec<Slot<f64>> {
        indices.iter().map(|&i| (arr, i)).collect()
    }

    /// The transfer-cancellation caveat from the module docs, demonstrated:
    /// when the region also carries a silent single-bit flip, the
    /// reconstruction of a poisoned line XORs that flip into the rebuilt
    /// word at the same lane — and a wrapping-sum checksum cannot tell
    /// (`+2^b` on the flipped word, `-2^b` on the rebuilt one, when the
    /// two original bits disagree). Were rung 1 to certify under Modular
    /// it would bless two corrupt words; `can_certify` refuses instead.
    #[test]
    fn modular_checksum_collides_with_a_transferred_flip() {
        let (mut m, h, arr) = committed_region(ChecksumKind::Modular);
        // Indices 3 and 11 are one full line apart: same parity lane.
        let w_flip = m.peek(arr, 11).to_bits();
        let w_target = m.peek(arr, 3).to_bits();
        let b = (0..64)
            .find(|&b| (w_flip >> b) & 1 != (w_target >> b) & 1)
            .unwrap();
        m.poke(arr, 11, f64::from_bits(w_flip ^ (1u64 << b)));
        let line = arr.addr(0).line();
        m.mem_mut().poison_line(line);
        let poisoned = m.mem_mut().poisoned_lines();
        let slots = to_slots(arr, &(0..32).collect::<Vec<_>>());
        let mut ctx = m.ctx(0);
        let stored = h.table.load(&mut ctx, 1).unwrap();
        let bits = reconstruct(&mut ctx, &h.parity, 1, &slots, line).unwrap();
        assert_eq!(
            bits[3],
            w_target ^ (1u64 << b),
            "the flip transfers into the rebuilt line"
        );
        assert!(
            folds_to(ChecksumKind::Modular, &bits, stored),
            "the wrapping sum collides on the paired ±2^b deltas"
        );
        assert!(!can_certify(ChecksumKind::Modular, slots.len()));
        let v = try_poison_repair(
            &mut ctx,
            &h.table,
            &h.parity,
            1,
            ChecksumKind::Modular,
            &slots,
            &poisoned,
        );
        assert_eq!(v, RepairVerdict::Failed, "refused, not falsely repaired");
    }

    #[test]
    fn mismatch_repair_refuses_two_corrupt_lines() {
        let (mut m, h, arr) = committed_region(ChecksumKind::Crc32);
        let a = m.peek(arr, 3);
        let b = m.peek(arr, 12);
        m.poke(arr, 3, a + 1.0);
        m.poke(arr, 12, b + 1.0);
        let slots = to_slots(arr, &(0..32).collect::<Vec<_>>());
        let mut ctx = m.ctx(0);
        assert!(
            !try_mismatch_repair(
                &mut ctx,
                &h.table,
                &h.parity,
                1,
                ChecksumKind::Crc32,
                &slots
            ),
            "two corrupt lines exceed single-parity repair"
        );
    }
}
