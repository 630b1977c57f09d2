//! Recovery: verify regions against their stored checksums, repair or
//! recompute the ones that fail, and account for the work.
//!
//! Recovery *policy* is kernel-specific (Section III-E: "recovery
//! mechanisms are region and workload dependent") — which regions to
//! audit, in what order, and where to resume. The *mechanics* every
//! policy is built from live here, written once:
//!
//! 1. *the session* — a [`Recovery`] pass owns core 0's timed context,
//!    the poisoned-line list, the [`RecoveryStats`] and the cycle count;
//! 2. *verification* ([`region_consistent`], [`Recovery::audit`]) —
//!    reload a region's values from the post-crash NVMM image, recompute
//!    the checksum, and compare it with the table entry;
//! 3. *rung 1* ([`Recovery::poison_repair`], [`Recovery::audit`]) —
//!    parity reconstruction of one lost or flipped line, tallied into
//!    `repaired_lines` / `repair_failures`;
//! 4. *rung 2* ([`Recovery::recompute`]) — re-execute a region through a
//!    [`RecoverySink`] that republishes its checksum (and parity line);
//! 5. *the rebuild journal* ([`Recovery::arm_rebuild`]) — a durable
//!    record that makes a quarantine rebuild re-entrant after a nested
//!    crash.
//!
//! Recovery always runs with **Eager Persistency** (repairs are flushed
//! and fenced) so that a crash during recovery cannot lose progress —
//! the forward-progress argument of Section III-E.

use crate::checksum::{ChecksumKind, RunningChecksum};
use crate::ep::EagerCommitter;
use crate::parity::{
    lane_of, try_mismatch_repair, try_poison_repair, ParityArena, RepairVerdict, Slot,
    PARITY_FOLD_OPS,
};
use crate::scheme::{Scheme, SchemeHandles};
use crate::table::ChecksumTable;
use lp_sim::addr::LineAddr;
use lp_sim::core::CoreCtx;
use lp_sim::machine::Machine;
use lp_sim::mem::{PArray, Scalar};

/// Counters describing one recovery pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Regions whose checksum was verified.
    pub regions_checked: u64,
    /// Regions found inconsistent (checksum mismatch or never written).
    pub regions_inconsistent: u64,
    /// Regions *recomputed* — rung 2/3 of the escalation ladder: the
    /// region's values were re-derived (from inputs or by EP re-execution)
    /// and re-persisted eagerly.
    pub recomputed_regions: u64,
    /// Lines *repaired* in place — rung 1: reconstructed from the region's
    /// XOR parity plus its surviving lines and re-verified, without
    /// recomputing anything.
    pub repaired_lines: u64,
    /// Rung-1 attempts that failed (unrepairable burst, partial line
    /// ownership, missing checksum, or a reconstruction that did not
    /// re-verify). Each failure precedes an escalation.
    pub repair_failures: u64,
    /// Transitions down the ladder: a region that rung 1 could not fix
    /// and had to fall through to recompute / re-execution.
    pub escalations: u64,
    /// Regions rebuilt because their lines intersected poisoned (media
    /// fault) NVMM — the checksum verdict was never trusted for these.
    pub regions_quarantined: u64,
    /// Simulated cycles the pass spent, on the recovering core's clock
    /// (set by [`Recovery::finish`]; [`RecoveryStats::merge`] sums it).
    pub cycles: u64,
}

impl RecoveryStats {
    /// Merge another pass into this one.
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.regions_checked += other.regions_checked;
        self.regions_inconsistent += other.regions_inconsistent;
        self.recomputed_regions += other.recomputed_regions;
        self.repaired_lines += other.repaired_lines;
        self.repair_failures += other.repair_failures;
        self.escalations += other.escalations;
        self.regions_quarantined += other.regions_quarantined;
        self.cycles += other.cycles;
    }
}

/// Whether any line backing elements `[start, start + count)` of `arr` is
/// in `poisoned` (a sorted list from
/// [`lp_sim::memsys::MemSystem::poisoned_lines`]). Quarantined ranges must
/// be rebuilt by recomputation regardless of what their checksums say:
/// poison reads as a fixed pattern, and a pattern can collide with a weak
/// code.
pub fn range_poisoned<T: Scalar>(
    poisoned: &[lp_sim::addr::LineAddr],
    arr: PArray<T>,
    start: usize,
    count: usize,
) -> bool {
    if poisoned.is_empty() || count == 0 {
        return false;
    }
    arr.lines_of_range(start, count)
        .any(|line| poisoned.binary_search(&line).is_ok())
}

/// Recompute the checksum of region values read through the timed context
/// and compare it with the stored table entry for `key`.
///
/// `slots` are the region's elements in the order normal execution folded
/// them — checksum codes need not be commutative, so order is part of the
/// contract. Regions that interleave several arrays (fft's re/im pair)
/// list their slots across arrays.
///
/// Returns `false` when the entry was never written (the sentinel case of
/// Section IV: the region may not have been reached before the failure).
pub fn region_consistent<T: Scalar>(
    ctx: &mut CoreCtx<'_>,
    table: &ChecksumTable,
    key: usize,
    kind: ChecksumKind,
    slots: impl IntoIterator<Item = Slot<T>>,
) -> bool {
    let mut ck = RunningChecksum::new(kind);
    let ops = kind.cost_ops();
    for (arr, i) in slots {
        let v = ctx.load(arr, i);
        ck.update(v.to_bits64());
        ctx.compute(ops);
    }
    table.matches(ctx, key, ck.value())
}

/// Where a kernel region's stores go: the per-scheme path during normal
/// execution, or one of the eager paths below during recovery.
pub trait StoreSink {
    /// Store `v` into element `idx` of `arr` through the sink.
    fn store(&mut self, ctx: &mut CoreCtx<'_>, arr: PArray<f64>, idx: usize, v: f64);
}

/// Rung-2 recovery sink: stores eagerly (lines collected for a
/// flush+fence commit) while recomputing the region checksum so the table
/// can be repaired durably too.
#[derive(Debug)]
pub struct RecoverySink {
    committer: EagerCommitter,
    ck: RunningChecksum,
    kind: ChecksumKind,
    parity: Option<(ParityArena, [u64; 8])>,
}

impl RecoverySink {
    /// A sink recomputing a `kind` checksum.
    pub fn new(kind: ChecksumKind) -> Self {
        RecoverySink {
            committer: EagerCommitter::new(),
            ck: RunningChecksum::new(kind),
            kind,
            parity: None,
        }
    }

    /// A sink that also rebuilds the region's XOR parity line
    /// (`LazyParity` recovery). The lanes are published durably *after*
    /// the data and checksum are fenced — the R8 recovery ordering: parity
    /// must never be observable ahead of the data it summarizes.
    pub fn with_parity(kind: ChecksumKind, arena: ParityArena) -> Self {
        RecoverySink {
            parity: Some((arena, [0u64; 8])),
            ..Self::new(kind)
        }
    }

    /// Flush all written lines, fence, then durably store the recomputed
    /// checksum in `table[key]` (and, under `LazyParity`, the rebuilt
    /// parity line — last, per rule R8).
    pub fn commit(self, ctx: &mut CoreCtx<'_>, table: &ChecksumTable, key: usize) {
        self.committer.commit(ctx);
        table.store(ctx, key, self.ck.value());
        table.persist(ctx, key);
        if let Some((arena, lanes)) = self.parity {
            arena.store_lanes(ctx, key, &lanes);
            arena.persist(ctx, key);
        }
    }
}

impl StoreSink for RecoverySink {
    fn store(&mut self, ctx: &mut CoreCtx<'_>, arr: PArray<f64>, idx: usize, v: f64) {
        ctx.store(arr, idx, v);
        self.committer.note(arr.addr(idx));
        self.ck.update(v.to_bits());
        ctx.compute(self.kind.cost_ops());
        if let Some((_, lanes)) = &mut self.parity {
            lanes[lane_of(arr.addr(idx))] ^= v.to_bits();
            ctx.compute(PARITY_FOLD_OPS);
        }
    }
}

/// Recovery sink for marker-based schemes (no checksums): plain eager
/// stores, flushed and fenced at commit, without touching any marker.
#[derive(Debug, Default)]
pub struct EagerOnlySink {
    committer: EagerCommitter,
}

impl EagerOnlySink {
    /// Flush all written lines and fence.
    pub fn commit(self, ctx: &mut CoreCtx<'_>) {
        self.committer.commit(ctx);
    }
}

impl StoreSink for EagerOnlySink {
    fn store(&mut self, ctx: &mut CoreCtx<'_>, arr: PArray<f64>, idx: usize, v: f64) {
        ctx.store(arr, idx, v);
        self.committer.note(arr.addr(idx));
    }
}

/// Table-slot value of an armed rebuild journal (see
/// [`Recovery::arm_rebuild`]).
const REBUILD_ARMED: u64 = 0x5EBD_5EBD_5EBD_5EBD;
/// Table-slot value of a cleared rebuild journal.
const REBUILD_CLEARED: u64 = 0;

/// One recovery pass: core 0's timed context plus everything the ladder's
/// rungs share. Recovery runs single-threaded on core 0 with Eager
/// Persistency, per Section III-E.
#[derive(Debug)]
pub struct Recovery<'a> {
    /// Core 0's timed context.
    pub ctx: CoreCtx<'a>,
    /// The NVMM lines poisoned when the pass began, ascending.
    pub poisoned: Vec<LineAddr>,
    /// The pass's counters ([`Recovery::finish`] fills in `cycles`).
    pub stats: RecoveryStats,
    handles: &'a SchemeHandles,
    start: u64,
}

impl<'a> Recovery<'a> {
    /// Begin a pass over `machine`'s post-crash image, for a kernel whose
    /// scheme structures are `handles`.
    pub fn begin(machine: &'a mut Machine, handles: &'a SchemeHandles) -> Self {
        let poisoned = machine.mem().poisoned_lines();
        let ctx = machine.ctx(0);
        let start = ctx.now();
        Recovery {
            ctx,
            poisoned,
            stats: RecoveryStats::default(),
            handles,
            start,
        }
    }

    /// End the pass: its counters, with the cycles it spent.
    pub fn finish(mut self) -> RecoveryStats {
        self.stats.cycles = self.ctx.now() - self.start;
        self.stats
    }

    /// The checksum code recovery verifies and republishes with. EP and
    /// WAL keep no checksums; their recovery sinks fold Modular, and the
    /// stores land in table slots the forward path never reads.
    pub fn kind(&self) -> ChecksumKind {
        match self.handles.scheme {
            Scheme::Lazy(kind) | Scheme::LazyEagerCk(kind) | Scheme::LazyParity(kind) => kind,
            Scheme::Base | Scheme::Eager | Scheme::Wal => ChecksumKind::Modular,
        }
    }

    /// Whether rung 1 exists: the scheme keeps per-region parity lines.
    pub fn repairs(&self) -> bool {
        matches!(self.handles.scheme, Scheme::LazyParity(_))
    }

    /// A rung-2 sink: checksum, plus the parity line under `LazyParity`.
    pub fn sink(&self) -> RecoverySink {
        if self.repairs() {
            RecoverySink::with_parity(self.kind(), self.handles.parity)
        } else {
            RecoverySink::new(self.kind())
        }
    }

    /// Rung 2: recompute the region `key` by running `body` into a fresh
    /// [`Recovery::sink`], then commit it (data, checksum, parity).
    pub fn recompute(
        &mut self,
        key: usize,
        body: impl FnOnce(&mut CoreCtx<'a>, &mut RecoverySink),
    ) {
        let mut sink = self.sink();
        body(&mut self.ctx, &mut sink);
        sink.commit(&mut self.ctx, &self.handles.table, key);
        self.stats.recomputed_regions += 1;
    }

    /// Audit region `key` over `slots`: verify it and, on a mismatch,
    /// try the rung-1 parity repair when the scheme has parity. Returns
    /// whether the region holds its committed data (consistent or
    /// repaired); a failed repair sets `failed`. Counts the region as
    /// checked, and as inconsistent on a mismatch. The verification
    /// streams `slots`; only a repair attempt collects them.
    pub fn audit<T: Scalar>(
        &mut self,
        key: usize,
        slots: impl IntoIterator<Item = Slot<T>> + Clone,
        failed: &mut bool,
    ) -> bool {
        self.stats.regions_checked += 1;
        let (kind, table) = (self.kind(), &self.handles.table);
        if region_consistent(&mut self.ctx, table, key, kind, slots.clone()) {
            return true;
        }
        self.stats.regions_inconsistent += 1;
        if !self.repairs() {
            return false;
        }
        let slots: Vec<Slot<T>> = slots.into_iter().collect();
        if self.mismatch_repair(key, &slots) {
            return true;
        }
        *failed = true;
        false
    }

    /// Rung 1 for region `key` over `slots` after it failed its checksum
    /// audit (see [`try_mismatch_repair`]), tallied: a repaired line or a
    /// failure. Call only when [`Recovery::repairs`].
    pub fn mismatch_repair<T: Scalar>(&mut self, key: usize, slots: &[Slot<T>]) -> bool {
        let kind = self.kind();
        let h = self.handles;
        let repaired = try_mismatch_repair(&mut self.ctx, &h.table, &h.parity, key, kind, slots);
        if repaired {
            self.stats.repaired_lines += 1;
        } else {
            self.stats.repair_failures += 1;
        }
        repaired
    }

    /// Rung 1 for region `key` over `slots` when a poisoned line may lie
    /// in it (see [`try_poison_repair`]), tallied: a repaired line or a
    /// failure. Call only when [`Recovery::repairs`].
    pub fn poison_repair<T: Scalar>(&mut self, key: usize, slots: &[Slot<T>]) -> RepairVerdict {
        let kind = self.kind();
        let h = self.handles;
        let verdict = try_poison_repair(
            &mut self.ctx,
            &h.table,
            &h.parity,
            key,
            kind,
            slots,
            &self.poisoned,
        );
        match verdict {
            RepairVerdict::Repaired => self.stats.repaired_lines += 1,
            RepairVerdict::Failed => self.stats.repair_failures += 1,
            RepairVerdict::Clean => {}
        }
        verdict
    }

    /// Whether the rebuild journal in table slot `key` is armed: a
    /// quarantine rebuild was in flight when a nested crash hit.
    pub fn rebuild_armed(&mut self, key: usize) -> bool {
        self.handles.table.load(&mut self.ctx, key) == Some(REBUILD_ARMED)
    }

    /// Durably arm the rebuild journal in table slot `key` before a
    /// quarantine rebuild overwrites anything. The record outlives the
    /// poison that triggered it: the rebuild's own writes (or an eviction
    /// of a partly rewritten line) scrub the poison registry while cells
    /// may still hold pattern residue, so a nested crash must find the
    /// journal rather than the vanished poison. One generic re-entrant
    /// recovery record, in the slot of a region the rebuild recomputes (a
    /// later commit to the slot clears it) or that the scheme never reads.
    pub fn arm_rebuild(&mut self, key: usize) {
        self.handles.table.store(&mut self.ctx, key, REBUILD_ARMED);
        self.handles.table.persist(&mut self.ctx, key);
    }

    /// Durably clear the rebuild journal in table slot `key`.
    pub fn clear_rebuild(&mut self, key: usize) {
        self.handles
            .table
            .store(&mut self.ctx, key, REBUILD_CLEARED);
        self.handles.table.persist(&mut self.ctx, key);
    }

    /// Roll back the interrupted WAL transaction of each thread in
    /// `threads` (no-op for other schemes), counting each thread that had
    /// one as an inconsistent region.
    pub fn wal_recover(&mut self, threads: std::ops::Range<usize>) {
        for t in threads {
            if self.handles.thread(t).wal_recover(&mut self.ctx) > 0 {
                self.stats.regions_inconsistent += 1;
            }
        }
    }

    /// Untimed read of the durable image (like [`Machine::peek`]).
    pub fn peek<T: Scalar>(&self, arr: PArray<T>, i: usize) -> T {
        self.ctx.mem.nvmm().peek(arr, i)
    }
}

/// Recompute a checksum over values produced by a closure (for regions
/// whose values span several arrays or need address arithmetic).
pub fn recompute_checksum(kind: ChecksumKind, feed: impl FnOnce(&mut RunningChecksum)) -> u64 {
    let mut ck = RunningChecksum::new(kind);
    feed(&mut ck);
    ck.value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{Scheme, SchemeHandles};
    use lp_sim::config::MachineConfig;
    use lp_sim::machine::Machine;
    use lp_sim::prelude::CrashTrigger;

    fn machine() -> Machine {
        Machine::new(
            MachineConfig::default()
                .with_cores(1)
                .with_nvmm_bytes(1 << 20),
        )
    }

    #[test]
    fn consistent_region_verifies_after_drain() {
        let mut m = machine();
        let arr = m.alloc::<f64>(32).unwrap();
        let h = SchemeHandles::alloc(&mut m, Scheme::lazy_default(), 4, 1, 0).unwrap();
        let tp = h.thread(0);
        {
            let mut ctx = m.ctx(0);
            let mut rs = tp.begin(&mut ctx, 0);
            for i in 0..32 {
                tp.store(&mut ctx, &mut rs, arr, i, (i * 3) as f64);
            }
            tp.commit(&mut ctx, rs);
        }
        m.drain_caches();
        let mut ctx = m.ctx(0);
        assert!(region_consistent(
            &mut ctx,
            &h.table,
            0,
            crate::checksum::ChecksumKind::Modular,
            (0..32).map(|i| (arr, i))
        ));
    }

    #[test]
    fn crashed_region_fails_verification() {
        let mut m = machine();
        let arr = m.alloc::<f64>(32).unwrap();
        let h = SchemeHandles::alloc(&mut m, Scheme::lazy_default(), 4, 1, 0).unwrap();
        let tp = h.thread(0);
        m.set_crash_trigger(CrashTrigger::AfterMemOps(10));
        let mut plans = m.plans();
        plans[0].region(move |ctx| {
            let mut rs = tp.begin(ctx, 0);
            for i in 0..32 {
                tp.store(ctx, &mut rs, arr, i, (i * 3) as f64);
            }
            tp.commit(ctx, rs);
        });
        assert_eq!(m.run(plans), lp_sim::machine::Outcome::Crashed);
        let mut ctx = m.ctx(0);
        assert!(
            !region_consistent(
                &mut ctx,
                &h.table,
                0,
                crate::checksum::ChecksumKind::Modular,
                (0..32).map(|i| (arr, i))
            ),
            "nothing persisted, so the region must verify as inconsistent"
        );
    }

    #[test]
    fn verification_order_matters_for_adler() {
        let mut m = machine();
        let arr = m.alloc::<f64>(4).unwrap();
        let h = SchemeHandles::alloc(
            &mut m,
            Scheme::Lazy(crate::checksum::ChecksumKind::Adler32),
            2,
            1,
            0,
        )
        .unwrap();
        let tp = h.thread(0);
        {
            let mut ctx = m.ctx(0);
            let mut rs = tp.begin(&mut ctx, 0);
            for i in 0..4 {
                tp.store(&mut ctx, &mut rs, arr, i, (i + 1) as f64);
            }
            tp.commit(&mut ctx, rs);
        }
        m.drain_caches();
        let mut ctx = m.ctx(0);
        let kind = crate::checksum::ChecksumKind::Adler32;
        let slots = |order: Vec<usize>| order.into_iter().map(move |i| (arr, i));
        assert!(region_consistent(
            &mut ctx,
            &h.table,
            0,
            kind,
            slots(vec![0, 1, 2, 3])
        ));
        assert!(
            !region_consistent(&mut ctx, &h.table, 0, kind, slots(vec![3, 2, 1, 0])),
            "feeding values in the wrong order must not verify"
        );
    }

    #[test]
    fn recovery_stats_merge() {
        let mut a = RecoveryStats {
            regions_checked: 2,
            regions_inconsistent: 1,
            recomputed_regions: 1,
            repaired_lines: 2,
            repair_failures: 1,
            escalations: 1,
            regions_quarantined: 1,
            cycles: 100,
        };
        let b = RecoveryStats {
            regions_checked: 3,
            regions_inconsistent: 0,
            recomputed_regions: 0,
            repaired_lines: 1,
            repair_failures: 0,
            escalations: 0,
            regions_quarantined: 2,
            cycles: 50,
        };
        a.merge(&b);
        assert_eq!(a.regions_checked, 5);
        assert_eq!(a.regions_quarantined, 3);
        assert_eq!(a.repaired_lines, 3);
        assert_eq!(a.repair_failures, 1);
        assert_eq!(a.escalations, 1);
        assert_eq!(a.cycles, 150);
    }

    #[test]
    fn recovery_sink_persists_data_and_checksum() {
        let mut m = machine();
        let arr = m.alloc::<f64>(16).unwrap();
        let table = ChecksumTable::alloc(&mut m, 4).unwrap();
        {
            let mut ctx = m.ctx(0);
            let mut sink = RecoverySink::new(ChecksumKind::Modular);
            for i in 0..16 {
                sink.store(&mut ctx, arr, i, i as f64);
            }
            sink.commit(&mut ctx, &table, 2);
        }
        // Everything survives a crash: data and table entry.
        m.mem_mut().force_crash();
        m.mem_mut().acknowledge_crash();
        for i in 0..16 {
            assert_eq!(m.peek(arr, i), i as f64);
        }
        let expected = crate::checksum::checksum_f64s(ChecksumKind::Modular, &m.peek_vec(arr));
        assert_eq!(table.peek(&m, 2), Some(expected));
    }

    #[test]
    fn rebuild_journal_survives_a_crash_until_cleared() {
        let mut m = machine();
        let h = SchemeHandles::alloc(&mut m, Scheme::Eager, 4, 1, 0).unwrap();
        {
            let mut rec = Recovery::begin(&mut m, &h);
            assert!(!rec.rebuild_armed(1));
            rec.arm_rebuild(1);
        }
        m.mem_mut().force_crash();
        m.mem_mut().acknowledge_crash();
        let mut rec = Recovery::begin(&mut m, &h);
        assert!(rec.rebuild_armed(1), "the armed journal is durable");
        assert!(!rec.rebuild_armed(0));
        rec.clear_rebuild(1);
        assert!(!rec.rebuild_armed(1));
        let stats = rec.finish();
        assert!(stats.cycles > 0);
    }

    #[test]
    fn session_sink_and_kind_follow_the_scheme() {
        let mut m = machine();
        for (scheme, kind, repairs) in [
            (
                Scheme::Lazy(ChecksumKind::Adler32),
                ChecksumKind::Adler32,
                false,
            ),
            (
                Scheme::LazyParity(ChecksumKind::Crc32),
                ChecksumKind::Crc32,
                true,
            ),
            (Scheme::Wal, ChecksumKind::Modular, false),
        ] {
            let h = SchemeHandles::alloc(&mut m, scheme, 4, 1, 8).unwrap();
            let rec = Recovery::begin(&mut m, &h);
            assert_eq!(rec.kind(), kind, "{scheme}");
            assert_eq!(rec.repairs(), repairs, "{scheme}");
            assert_eq!(rec.sink().parity.is_some(), repairs, "{scheme}");
        }
    }

    #[test]
    fn recompute_checksum_closure_form() {
        let kind = crate::checksum::ChecksumKind::Modular;
        let v = recompute_checksum(kind, |ck| {
            ck.update(1);
            ck.update(2);
        });
        let mut ck = RunningChecksum::new(kind);
        ck.update(1);
        ck.update(2);
        assert_eq!(v, ck.value());
    }
}
