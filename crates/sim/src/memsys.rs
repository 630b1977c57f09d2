//! The shared memory system: L1s + inclusive L2 with MESI directory, the
//! ADR memory controller, the NVMM image, crash modelling, and the
//! periodic cleaner.
//!
//! All coherence and timing decisions live here. Cores reach the caches
//! through [`crate::core::CoreCtx`], which probes its L1 once per
//! operation and then reads or writes the resident way directly; the
//! scheduler in [`crate::machine`] serializes logical cores so no
//! internal locking is needed and runs are fully deterministic. Cache
//! geometry, hit latencies and memory-controller queues are the Table II
//! constants of [`crate::config`].

use crate::addr::{Addr, LineAddr, LINE_BYTES};
use crate::cache::{L1Cache, L2Cache, Mesi};
use crate::cleaner::CleanerState;
use crate::config::{
    MachineConfig, L1_ASSOC, L1_LATENCY, L2_ASSOC, L2_LATENCY, MC_READ_GAP, MC_READ_QUEUE,
    MC_WRITE_GAP, MC_WRITE_QUEUE,
};
use crate::mc::MemCtrl;
use crate::mem::Nvmm;
use crate::observe::{MemEvent, ObserverSlot, RegionId, SharedSink};
use crate::stats::{MemStats, WriteCause};

/// When the simulated machine should lose power.
///
/// Triggers fire while the workload runs; once fired, every subsequent
/// memory operation becomes a no-op (the machine is "off") until the
/// harness acknowledges the crash and starts recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashTrigger {
    /// Crash after this many memory operations (loads + stores + flushes).
    AfterMemOps(u64),
    /// Crash once the total NVMM write count reaches this value.
    AfterNvmmWrites(u64),
    /// Crash once any core's clock passes this cycle.
    AtCycle(u64),
}

/// A flush-issued NVMM write whose durability is not yet guaranteed.
///
/// The simulator applies `clflushopt`/`clwb` writebacks to the NVMM image
/// at issue time, but under ADR a flush is only *guaranteed* durable once a
/// subsequent `sfence` retires it (or the line is definitely written back
/// for another reason). Until then a crash may or may not have persisted
/// it, so the crash-state model must treat it as a maybe-durable delta:
/// `pre` is the NVMM content the write replaced, `data` what it wrote.
#[derive(Debug, Clone)]
struct PendingFlush {
    line: LineAddr,
    pre: [u8; LINE_BYTES],
    data: [u8; LINE_BYTES],
    core: usize,
}

/// Where the freshest maybe-durable copy of a census line lived at crash
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CensusOrigin {
    /// An un-fenced flush writeback issued by this core.
    PendingFlush {
        /// The issuing core.
        core: usize,
    },
    /// A dirty line whose freshest copy was in this core's L1 (Modified).
    DirtyL1 {
        /// The owning core.
        core: usize,
    },
    /// A dirty line whose freshest copy was in the shared L2.
    DirtyL2,
}

/// One line whose post-crash durability is undetermined under ADR: it may
/// or may not have reached NVMM before power was lost.
#[derive(Debug, Clone)]
pub struct CensusEntry {
    /// The affected line.
    pub line: LineAddr,
    /// The data the line holds if this entry "made it".
    pub data: [u8; LINE_BYTES],
    /// Why the line's durability is undetermined.
    pub origin: CensusOrigin,
}

/// The set of NVMM states reachable from a crash, captured by
/// [`MemSystem::acknowledge_crash`] when ADR tracking is enabled.
///
/// Every reachable post-crash image is `base` plus some subset of
/// `entries` applied *in vector order* (entries are ranked oldest-first,
/// so a later entry for the same line supersedes an earlier one). The
/// empty subset is the pessimal image (nothing volatile made it); the full
/// subset equals the crash-free coherent view of those lines.
#[derive(Debug, Clone)]
pub struct CrashCensus {
    /// The guaranteed-durable floor: the NVMM image with every un-fenced
    /// flush write reverted to its pre-image.
    pub base: Nvmm,
    /// Maybe-durable line writes, oldest first.
    pub entries: Vec<CensusEntry>,
}

impl CrashCensus {
    /// Materialize one reachable image from an explicit subset selection
    /// (`selected[i]` applies `entries[i]`, in rank order).
    ///
    /// # Panics
    ///
    /// Panics if `selected.len()` differs from the entry count.
    pub fn materialize_subset(&self, selected: &[bool]) -> Nvmm {
        assert_eq!(
            selected.len(),
            self.entries.len(),
            "subset selection width must match the census"
        );
        let mut img = self.base.fork();
        for (e, _) in self.entries.iter().zip(selected).filter(|&(_, s)| *s) {
            img.write_line(e.line, &e.data);
        }
        img
    }

    /// Materialize one reachable image where each selected entry persists
    /// *torn*: only the 8-byte words of `masks[i]` land (see
    /// [`Nvmm::write_words`]). ADR guarantees word-granular atomicity, not
    /// line-granular, so at crash time any word subset of an in-flight
    /// writeback is reachable. With every mask `0xFF` this is exactly
    /// [`Self::materialize_subset`].
    ///
    /// # Panics
    ///
    /// Panics if `selected` or `masks` differ in width from the census.
    pub fn materialize_subset_torn(&self, selected: &[bool], masks: &[u8]) -> Nvmm {
        assert_eq!(
            selected.len(),
            self.entries.len(),
            "subset selection width must match the census"
        );
        assert_eq!(
            masks.len(),
            self.entries.len(),
            "torn mask width must match the census"
        );
        let mut img = self.base.fork();
        for (i, e) in self.entries.iter().enumerate() {
            if selected[i] {
                img.write_words(e.line, &e.data, masks[i]);
            }
        }
        img
    }
}

/// Result of a timed cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Whether the access hit in the issuing core's L1 (upgrades count as
    /// hits: the data was present).
    pub l1_hit: bool,
    /// Cycles until the data is available / the store is performed.
    pub cost: u64,
}

/// Outcome of a flush-style operation (`clflushopt`/`clwb`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushOutcome {
    /// Cycles charged at issue (flushes are posted, not blocking).
    pub issue_cost: u64,
    /// Time at which the writeback (if any) is durable in NVMM and the
    /// line is globally observable; `sfence` waits for this.
    pub completion: u64,
}

fn sharer_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    // Walk set bits directly (ascending) instead of scanning all 64
    // positions; directory masks are almost always 0- or 1-bit.
    std::iter::from_fn(move || {
        if mask == 0 {
            None
        } else {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            Some(i)
        }
    })
}

/// The complete shared memory system of a simulated machine.
#[derive(Debug)]
pub struct MemSystem {
    /// Machine configuration (latencies, geometries).
    pub cfg: MachineConfig,
    l1s: Vec<L1Cache>,
    l2: L2Cache,
    mc: MemCtrl,
    /// [`MachineConfig::mc_forward_latency`], worked out once: the miss
    /// path reads it on every L2 miss.
    mc_forward_latency: u64,
    nvmm: Nvmm,
    /// Shared memory-system statistics.
    pub stats: MemStats,
    crashed: bool,
    trigger: Option<CrashTrigger>,
    mem_ops: u64,
    global_time: u64,
    cleaner: Option<CleanerState>,
    observer: ObserverSlot,
    adr_tracking: bool,
    pending_flushes: Vec<PendingFlush>,
    crash_census: Option<CrashCensus>,
    /// Ascending op indices at which to capture a census snapshot without
    /// crashing (the model checker's snapshot-resume forward pass).
    snapshot_points: Vec<u64>,
    snapshot_cursor: usize,
    snapshots: Vec<(u64, CrashCensus)>,
    /// When set, every store/flush/sfence op index (and each region
    /// commit) is recorded as a crash-point candidate.
    candidate_tracking: bool,
    crash_candidates: Vec<u64>,
    /// Per-core open persistency region `(id, key)` announced via
    /// [`crate::core::CoreCtx::region_begin`].
    open_regions: Vec<Option<(RegionId, usize)>>,
    next_region: u64,
    /// Per-core last-accessed L1 `(line, way)` memo. Validated against the
    /// cache on every use (the way may have been reused), so it is purely
    /// a lookup shortcut with no semantic weight.
    l1_memo: Vec<(u64, usize)>,
    /// Cached dispatch mode: `true` when no per-op instrumentation
    /// (candidate tracking, cleaner, census snapshots, crash trigger) is
    /// armed, letting [`MemSystem::after_op`] skip all of those checks.
    /// Maintained by [`MemSystem::refresh_dispatch_mode`].
    quiet_ops: bool,
}

impl MemSystem {
    /// Build the memory system for a validated configuration, over a
    /// zero-filled NVMM image.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.validate()` fails.
    pub fn new(cfg: MachineConfig) -> Self {
        let image = Nvmm::new(cfg.nvmm_bytes);
        Self::with_nvmm(cfg, image)
    }

    /// Build the memory system for a validated configuration with `image`
    /// as its durable state and cold caches (crash-state exploration
    /// forks a post-crash world this way).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.validate()` fails or the image capacity does not
    /// match `cfg.nvmm_bytes`.
    pub(crate) fn with_nvmm(cfg: MachineConfig, image: Nvmm) -> Self {
        cfg.validate().expect("invalid machine configuration");
        let l1s = (0..cfg.cores)
            .map(|_| L1Cache::new(cfg.l1_bytes, L1_ASSOC))
            .collect();
        let l2 = L2Cache::new(cfg.l2_bytes, L2_ASSOC);
        Self::assemble(cfg, l1s, l2, image)
    }

    /// [`MemSystem::with_nvmm`] over this system's cache arrays, reset to
    /// their newly built state instead of reallocated. Every other part
    /// is built fresh, so the result equals `with_nvmm(cfg, image)`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` differs from the configuration this system was
    /// built with, or the image capacity does not match it.
    pub(crate) fn recycle(self, cfg: MachineConfig, image: Nvmm) -> Self {
        assert_eq!(
            self.cfg, cfg,
            "a recycled memory system must keep its configuration"
        );
        let MemSystem {
            mut l1s, mut l2, ..
        } = self;
        for l1 in &mut l1s {
            l1.reset();
        }
        l2.reset();
        Self::assemble(cfg, l1s, l2, image)
    }

    /// The one place a memory system is put together: `cfg` is validated
    /// and the caches are newly built or reset; everything else starts
    /// from its power-on state.
    fn assemble(cfg: MachineConfig, l1s: Vec<L1Cache>, l2: L2Cache, nvmm: Nvmm) -> Self {
        assert_eq!(
            nvmm.capacity(),
            cfg.nvmm_bytes,
            "NVMM image capacity must match cfg.nvmm_bytes"
        );
        let mc = MemCtrl::new(
            MC_READ_QUEUE,
            MC_WRITE_QUEUE,
            MC_READ_GAP,
            MC_WRITE_GAP,
            cfg.nvmm_read_cycles(),
            cfg.nvmm_write_cycles(),
        );
        let mc_forward_latency = cfg.mc_forward_latency();
        let cleaner = cfg.cleaner.map(CleanerState::new);
        let open_regions = vec![None; cfg.cores];
        let l1_memo = vec![(u64::MAX, 0usize); cfg.cores];
        let quiet_ops = cleaner.is_none();
        MemSystem {
            cfg,
            l1s,
            l2,
            mc,
            mc_forward_latency,
            nvmm,
            stats: MemStats::default(),
            crashed: false,
            trigger: None,
            mem_ops: 0,
            global_time: 0,
            cleaner,
            observer: ObserverSlot::default(),
            adr_tracking: false,
            pending_flushes: Vec::new(),
            crash_census: None,
            snapshot_points: Vec::new(),
            snapshot_cursor: 0,
            snapshots: Vec::new(),
            candidate_tracking: false,
            crash_candidates: Vec::new(),
            open_regions,
            next_region: 0,
            l1_memo,
            quiet_ops,
        }
    }

    /// Recompute the cached dispatch mode after any instrumentation
    /// toggle. `quiet_ops` must be `true` iff [`MemSystem::after_op`] has
    /// no work beyond the clock/op-counter updates.
    fn refresh_dispatch_mode(&mut self) {
        self.quiet_ops = !self.candidate_tracking
            && self.cleaner.is_none()
            && self.snapshot_points.is_empty()
            && self.trigger.is_none();
    }

    // ------------------------------------------------------------------
    // ADR crash-state tracking (opt-in; zero work when disabled)
    // ------------------------------------------------------------------

    /// Enable or disable ADR crash-state tracking. While enabled, flush
    /// writebacks record maybe-durable deltas and a crash captures a
    /// [`CrashCensus`]. Disabling clears any pending state.
    pub fn set_adr_tracking(&mut self, on: bool) {
        self.adr_tracking = on;
        if !on {
            self.pending_flushes.clear();
            self.crash_census = None;
            self.snapshot_points.clear();
            self.snapshot_cursor = 0;
            self.snapshots.clear();
            self.refresh_dispatch_mode();
        }
    }

    /// Whether ADR crash-state tracking is enabled.
    pub fn adr_tracking(&self) -> bool {
        self.adr_tracking
    }

    /// Take the census captured by the most recent acknowledged crash, if
    /// tracking was enabled when it fired.
    pub fn take_crash_census(&mut self) -> Option<CrashCensus> {
        self.crash_census.take()
    }

    /// Arm non-destructive census snapshots at the given op indices: when
    /// `mem_ops` reaches each point, [`MemSystem::after_op`] captures the
    /// same [`CrashCensus`] a crash at that op would have, without
    /// crashing. Points are sorted and deduplicated; any previously
    /// collected snapshots are discarded.
    ///
    /// This is the model checker's snapshot-resume pass: one forward run
    /// replaces a replay-from-op-0 per crash point, because the simulator
    /// is deterministic and an armed crash has no effect before it fires —
    /// the machine state at op `p` is identical either way.
    ///
    /// # Panics
    ///
    /// Panics unless ADR tracking is enabled (a census needs the pending
    /// flush deltas).
    pub fn set_snapshot_points(&mut self, points: &[u64]) {
        assert!(
            self.adr_tracking,
            "census snapshots require ADR tracking to be enabled first"
        );
        let mut pts = points.to_vec();
        pts.sort_unstable();
        pts.dedup();
        self.snapshot_points = pts;
        self.snapshot_cursor = 0;
        self.snapshots.clear();
        self.refresh_dispatch_mode();
    }

    /// Take the `(op, census)` snapshots collected since
    /// [`MemSystem::set_snapshot_points`], in op order, and disarm
    /// snapshotting. Points the run never reached produce no entry.
    pub fn take_snapshots(&mut self) -> Vec<(u64, CrashCensus)> {
        self.snapshot_points.clear();
        self.snapshot_cursor = 0;
        self.refresh_dispatch_mode();
        std::mem::take(&mut self.snapshots)
    }

    /// Enable or disable crash-point candidate recording (see
    /// [`MemSystem::take_crash_candidates`]). Enabling clears any
    /// previously recorded candidates. Purely observational: no timing or
    /// functional effect.
    pub fn set_candidate_tracking(&mut self, on: bool) {
        self.candidate_tracking = on;
        self.crash_candidates.clear();
        self.refresh_dispatch_mode();
    }

    /// Take the recorded crash-point candidates — the op indices of every
    /// store, flush, and sfence (loads advance the op clock but expose no
    /// new NVMM write), plus each region commit's last op — ascending and
    /// deduplicated — and disarm tracking.
    pub fn take_crash_candidates(&mut self) -> Vec<u64> {
        self.candidate_tracking = false;
        self.refresh_dispatch_mode();
        let mut out = std::mem::take(&mut self.crash_candidates);
        out.dedup();
        out
    }

    /// Retire every pending (maybe-durable) flush issued by `core`: called
    /// on `sfence`, after which ADR guarantees those writebacks are
    /// durable.
    pub(crate) fn retire_pending_flushes(&mut self, core: usize) {
        if self.adr_tracking {
            self.pending_flushes.retain(|p| p.core != core);
        }
    }

    /// Retire every pending flush of `line`: called when the line is
    /// definitely written to (or read back from) NVMM, which proves the
    /// earlier writeback reached the memory controller.
    fn retire_pending_line(&mut self, line: LineAddr) {
        if self.adr_tracking {
            self.pending_flushes.retain(|p| p.line != line);
        }
    }

    /// Build the census of maybe-durable lines for the machine's *current*
    /// state, non-destructively: callable both at crash time (before the
    /// caches are wiped) and mid-run by the snapshot pass.
    fn build_census(&self) -> CrashCensus {
        // Floor image: revert un-fenced flush writes, newest first, so the
        // oldest pre-image of a multiply-flushed line wins.
        let mut base = self.nvmm.fork();
        for p in self.pending_flushes.iter().rev() {
            base.write_line(p.line, &p.pre);
        }
        let mut entries: Vec<CensusEntry> = self
            .pending_flushes
            .iter()
            .map(|p| CensusEntry {
                line: p.line,
                data: p.data,
                origin: CensusOrigin::PendingFlush { core: p.core },
            })
            .collect();
        // Dirty lines, freshest copy first (L1 Modified owner over L2).
        // They rank after pending flushes: a line that was flushed and
        // then re-dirtied holds strictly newer data in the cache.
        for idx in self.l2.valid_ways() {
            let w = self.l2.way(idx);
            let (data, origin) = match self.modified_l1_copy(idx) {
                Some((o, i1)) => (self.l1s[o].way(i1).data, CensusOrigin::DirtyL1 { core: o }),
                None if w.dirty => (w.data, CensusOrigin::DirtyL2),
                None => continue,
            };
            entries.push(CensusEntry {
                line: w.line,
                data,
                origin,
            });
        }
        CrashCensus { base, entries }
    }

    /// The directory owner's L1 copy of the line in L2 way `l2idx`, as
    /// `(core, L1 way)`, when that copy is `Modified` (fresher than the
    /// L2's).
    fn modified_l1_copy(&self, l2idx: usize) -> Option<(usize, usize)> {
        let w = self.l2.way(l2idx);
        let o = usize::from(w.owner?);
        let i1 = self.l1s[o].find(w.line)?;
        (self.l1s[o].way(i1).state == Mesi::Modified).then_some((o, i1))
    }

    // ------------------------------------------------------------------
    // Event observation (opt-in; zero work when no sink is installed)
    // ------------------------------------------------------------------

    /// Install an event sink; see [`crate::observe`].
    pub fn set_observer(&mut self, sink: SharedSink) {
        self.observer.install(sink);
    }

    /// Remove the event sink, restoring the zero-overhead default path.
    pub fn clear_observer(&mut self) {
        self.observer.clear();
    }

    /// The region `core` currently has open, if any.
    pub fn open_region(&self, core: usize) -> Option<RegionId> {
        self.open_regions[core].map(|(id, _)| id)
    }

    /// Announce that `core` opened a persistency region with table/marker
    /// key `key`. Returns the region's dynamic identity. Purely
    /// observational: no timing or functional effect.
    pub fn announce_region_begin(&mut self, core: usize, cycle: u64, key: usize) -> RegionId {
        let id = RegionId(self.next_region);
        self.next_region += 1;
        self.open_regions[core] = Some((id, key));
        self.observer.emit(MemEvent::RegionBegin {
            core,
            cycle,
            region: id,
            key,
        });
        id
    }

    /// Announce that `core` committed (closed) its open region, if any.
    pub fn announce_region_end(&mut self, core: usize, cycle: u64) {
        if let Some((region, key)) = self.open_regions[core].take() {
            // A commit is a crash-point candidate at its last constituent
            // op (usually already recorded; deduplicated on take).
            if self.candidate_tracking && self.mem_ops > 0 {
                self.crash_candidates.push(self.mem_ops);
            }
            self.observer.emit(MemEvent::RegionCommit {
                core,
                cycle,
                region,
                key,
            });
        }
    }

    /// Emit a [`MemEvent::Store`] tagged with `core`'s open region. The
    /// no-observer check inlines into every store; the emission stays out
    /// of line.
    #[inline]
    pub(crate) fn observe_store(
        &self,
        core: usize,
        cycle: u64,
        addr: Addr,
        bits: u64,
        size: usize,
    ) {
        if self.observer.is_some() {
            self.emit_observed(MemEvent::Store {
                core,
                cycle,
                addr,
                bits,
                size,
                region: self.open_region(core),
            });
        }
    }

    /// Emit a [`MemEvent::Load`] tagged with `core`'s open region (split
    /// like [`MemSystem::observe_store`]).
    #[inline]
    pub(crate) fn observe_load(&self, core: usize, cycle: u64, addr: Addr, size: usize) {
        if self.observer.is_some() {
            self.emit_observed(MemEvent::Load {
                core,
                cycle,
                addr,
                size,
                region: self.open_region(core),
            });
        }
    }

    /// Deliver a load or store event to the installed observer, out of
    /// line from the inlined guards above.
    #[inline(never)]
    fn emit_observed(&self, ev: MemEvent) {
        self.observer.emit(ev);
    }

    /// Emit a [`MemEvent::Flush`] tagged with `core`'s open region.
    pub(crate) fn observe_flush(&self, core: usize, cycle: u64, line: LineAddr, keep: bool) {
        if self.observer.is_some() {
            self.observer.emit(MemEvent::Flush {
                core,
                cycle,
                line,
                keep,
                region: self.open_region(core),
            });
        }
    }

    /// Emit a [`MemEvent::Sfence`] tagged with `core`'s open region.
    pub(crate) fn observe_sfence(&self, core: usize, cycle: u64) {
        if self.observer.is_some() {
            self.observer.emit(MemEvent::Sfence {
                core,
                cycle,
                region: self.open_region(core),
            });
        }
    }

    /// Emit a [`MemEvent::Barrier`] (called by the scheduler).
    pub(crate) fn observe_barrier(&self, cycle: u64) {
        self.observer.emit(MemEvent::Barrier { cycle });
    }

    /// Whether the machine has crashed (power lost).
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Arm (or disarm, with `None`) the crash trigger.
    pub fn set_crash_trigger(&mut self, trigger: Option<CrashTrigger>) {
        self.trigger = trigger;
        self.refresh_dispatch_mode();
    }

    /// Force an immediate crash.
    pub fn force_crash(&mut self) {
        self.crashed = true;
        self.observer.emit(MemEvent::Crash {
            cycle: self.global_time,
        });
    }

    /// Acknowledge a crash: drop all cache state *without writing anything
    /// back* (volatile contents are lost) and power the machine back on.
    pub fn acknowledge_crash(&mut self) {
        if self.adr_tracking {
            self.crash_census = Some(self.build_census());
            self.pending_flushes.clear();
        }
        for l1 in &mut self.l1s {
            l1.wipe();
        }
        self.l2.wipe();
        self.crashed = false;
        self.trigger = None;
        self.refresh_dispatch_mode();
    }

    /// Direct access to the durable image (setup/inspection).
    pub fn nvmm(&self) -> &Nvmm {
        &self.nvmm
    }

    /// Mutable access to the durable image (setup). Prefer
    /// [`crate::machine::Machine::poke`] which also invalidates stale
    /// cached copies.
    pub fn nvmm_mut(&mut self) -> &mut Nvmm {
        &mut self.nvmm
    }

    /// Inject a media error: poison `line` in the NVMM image (it reads as
    /// the [`crate::mem::POISON_BYTE`] pattern until a writeback scrubs
    /// it) and drop any cached copy so stale clean data cannot mask the
    /// fault.
    pub fn poison_line(&mut self, line: LineAddr) {
        self.invalidate_everywhere(line);
        self.nvmm.poison_line(line);
    }

    /// Currently poisoned NVMM lines, ascending (see
    /// [`crate::mem::Nvmm::poisoned_lines`]).
    pub fn poisoned_lines(&self) -> Vec<LineAddr> {
        self.nvmm.poisoned_lines()
    }

    /// Whether any NVMM line is currently poisoned (no allocation).
    pub fn has_poisoned_lines(&self) -> bool {
        self.nvmm.poisoned_count() != 0
    }

    /// Drop any cached copy of `line` without writeback (used by `poke` so
    /// a direct image write cannot be shadowed by stale cache data).
    pub fn invalidate_everywhere(&mut self, line: LineAddr) {
        if let Some(l2idx) = self.l2.find(line) {
            let sharers = self.l2.way(l2idx).sharers;
            for o in sharer_bits(sharers) {
                self.l1s[o].invalidate(line);
            }
            self.l2.way_mut(l2idx).drop_line();
        }
    }

    /// Current global time estimate (max core cycle seen so far).
    pub fn global_time(&self) -> u64 {
        self.global_time
    }

    /// Total memory operations processed.
    pub fn mem_ops(&self) -> u64 {
        self.mem_ops
    }

    // ------------------------------------------------------------------
    // Core-facing timed operations
    // ------------------------------------------------------------------

    /// Guarantee `line` is present in `core`'s L1 with read (shared) or
    /// write (exclusive, dirty) permission, applying all coherence side
    /// effects. Returns the hit level and cycle cost.
    ///
    /// No-op returning zero cost after a crash.
    pub fn ensure_in_l1(
        &mut self,
        core: usize,
        line: LineAddr,
        now: u64,
        for_write: bool,
    ) -> Access {
        if self.crashed {
            return Access {
                l1_hit: true,
                cost: 0,
            };
        }
        let probe = self.l1s[core].find(line);
        self.ensure_in_l1_probed(core, line, now, for_write, probe)
            .0
    }

    /// Way of `core`'s L1 holding `line`, if resident. A per-core
    /// last-way memo short-circuits the set-associative find; the memo is
    /// validated against the cache on every use, so stale entries (after
    /// evictions, invalidations, or wipes) are harmless.
    #[inline(always)]
    pub(crate) fn l1_probe(&mut self, core: usize, line: LineAddr) -> Option<usize> {
        let (memo_line, memo_way) = self.l1_memo[core];
        if memo_line == line.0 {
            let w = self.l1s[core].way(memo_way);
            if w.state != Mesi::Invalid && w.line == line {
                return Some(memo_way);
            }
        }
        let found = self.l1s[core].find(line);
        if let Some(idx) = found {
            self.l1_memo[core] = (line.0, idx);
        }
        found
    }

    /// [`MemSystem::ensure_in_l1`] with the residence probe hoisted out:
    /// `probe` is `core`'s way holding `line` (`None` = definitively
    /// absent), normally from [`MemSystem::l1_probe`]. Returns the access
    /// plus the way now holding the line, which
    /// [`MemSystem::l1_read_scalar_at`] / [`MemSystem::l1_write_scalar_at`]
    /// accept to skip re-finding it. No other cache operation may
    /// intervene between the probe and this call, and the machine must not
    /// be crashed (callers in [`crate::core::CoreCtx`] check once per op).
    ///
    /// The hit cases that need no other cache (`Modified` for any access,
    /// `Exclusive` or `Shared` for a read, `Exclusive` for a write, which
    /// becomes `Modified`) are inlined into the calling crate with the
    /// rest of [`crate::core::CoreCtx`]'s generic load and store; the
    /// upgrade and the miss are [`MemSystem::ensure_in_l1_slow`].
    #[inline(always)]
    pub(crate) fn ensure_in_l1_probed(
        &mut self,
        core: usize,
        line: LineAddr,
        now: u64,
        for_write: bool,
        probe: Option<usize>,
    ) -> (Access, usize) {
        debug_assert!(!self.crashed, "ensure_in_l1_probed on a crashed machine");
        if let Some(idx) = probe {
            let l1 = &mut self.l1s[core];
            match (l1.way(idx).state, for_write) {
                (Mesi::Modified, _) | (Mesi::Exclusive | Mesi::Shared, false) => {
                    l1.touch(idx);
                    return (
                        Access {
                            l1_hit: true,
                            cost: L1_LATENCY,
                        },
                        idx,
                    );
                }
                (Mesi::Exclusive, true) => {
                    l1.touch(idx);
                    let w = l1.way_mut(idx);
                    w.state = Mesi::Modified;
                    w.dirty_since = now;
                    return (
                        Access {
                            l1_hit: true,
                            cost: L1_LATENCY,
                        },
                        idx,
                    );
                }
                _ => {}
            }
        }
        self.ensure_in_l1_slow(core, line, now, for_write, probe)
    }

    /// [`MemSystem::ensure_in_l1_probed`] for a write to a `Shared` line
    /// (an upgrade through the directory) and for an L1 miss.
    fn ensure_in_l1_slow(
        &mut self,
        core: usize,
        line: LineAddr,
        now: u64,
        for_write: bool,
        probe: Option<usize>,
    ) -> (Access, usize) {
        if let Some(idx) = probe {
            self.l1s[core].touch(idx);
            assert!(
                self.l1s[core].way(idx).state == Mesi::Shared && for_write,
                "only an upgrade reaches the slow path with a resident line"
            );
            // Upgrade: invalidate the other sharers through the
            // directory, then take ownership.
            let l2idx = self.l2.find(line).expect("inclusion: S line in L2");
            let sharers = self.l2.way(l2idx).sharers;
            for o in sharer_bits(sharers) {
                if o != core && self.l1s[o].invalidate(line).is_some() {
                    self.stats.coherence_invalidations += 1;
                }
            }
            let w2 = self.l2.way_mut(l2idx);
            w2.sharers = 1u64 << core;
            w2.owner = Some(core as u8);
            self.l2.touch(l2idx);
            let w = self.l1s[core].way_mut(idx);
            w.state = Mesi::Modified;
            w.dirty_since = now;
            return (
                Access {
                    l1_hit: true,
                    cost: L1_LATENCY + L2_LATENCY,
                },
                idx,
            );
        }

        // L1 miss: consult the L2.
        let mut cost = L1_LATENCY + L2_LATENCY;
        let (data, state, dirty_since) = if let Some(l2idx) = self.l2.find(line) {
            self.stats.l2_hits += 1;
            self.l2.touch(l2idx);
            let owner = self.l2.way(l2idx).owner.map(usize::from);
            // Recall / downgrade a remote exclusive owner.
            if let Some(o) = owner {
                debug_assert_ne!(o, core, "owner missed in its own L1");
                if for_write {
                    if let Some(ev) = self.l1s[o].invalidate(line) {
                        if ev.state == Mesi::Modified {
                            self.l2
                                .way_mut(l2idx)
                                .fold_modified(ev.data, ev.dirty_since);
                            self.stats.coherence_recalls += 1;
                        } else {
                            self.stats.coherence_invalidations += 1;
                        }
                    }
                    let w = self.l2.way_mut(l2idx);
                    w.sharers &= !(1u64 << o);
                    w.owner = None;
                } else if let Some(i1) = self.l1s[o].find(line) {
                    let (d, ds, was_m) = {
                        let w1 = self.l1s[o].way_mut(i1);
                        let was_m = w1.state == Mesi::Modified;
                        w1.state = Mesi::Shared;
                        (w1.data, w1.dirty_since, was_m)
                    };
                    if was_m {
                        self.l2.way_mut(l2idx).fold_modified(d, ds);
                        self.stats.coherence_recalls += 1;
                    }
                    self.l2.way_mut(l2idx).owner = None;
                }
                cost += L2_LATENCY; // snoop round-trip
            }
            if for_write {
                // Invalidate the remaining (shared) copies.
                let sharers = self.l2.way(l2idx).sharers;
                for o in sharer_bits(sharers) {
                    if o != core && self.l1s[o].invalidate(line).is_some() {
                        self.stats.coherence_invalidations += 1;
                    }
                }
                let w = self.l2.way_mut(l2idx);
                w.sharers = 1u64 << core;
                w.owner = Some(core as u8);
                (w.data, Mesi::Modified, now)
            } else {
                let w = self.l2.way_mut(l2idx);
                w.sharers |= 1u64 << core;
                let sole = w.sharers == 1u64 << core;
                w.owner = if sole { Some(core as u8) } else { None };
                let st = if sole { Mesi::Exclusive } else { Mesi::Shared };
                (w.data, st, 0)
            }
        } else {
            // L2 miss: fetch the line from NVMM (or forward it straight
            // out of the memory controller's write queue if it was just
            // written there).
            self.stats.l2_misses += 1;
            let (completion, forwarded) =
                self.mc
                    .schedule_read(line, now + cost, self.mc_forward_latency, core);
            if !forwarded {
                self.stats.nvmm_reads += 1;
            }
            cost = completion.saturating_sub(now) + L1_LATENCY;
            let way = self.l2.victim_way(line);
            if self.l2.way(way).valid {
                self.evict_l2_way(way, now + cost, core);
            }
            // The fetch observes the line's writeback at the memory
            // controller, so any maybe-durable flush of it is now
            // definitely durable.
            self.retire_pending_line(line);
            let mut buf = [0u8; LINE_BYTES];
            self.nvmm.read_line(line, &mut buf);
            self.l2.install(way, line, buf, core, true);
            if for_write {
                self.l2.way_mut(way).owner = Some(core as u8);
                (buf, Mesi::Modified, now)
            } else {
                (buf, Mesi::Exclusive, 0)
            }
        };
        let way = self.install_in_l1(core, line, data, state, dirty_since);
        (
            Access {
                l1_hit: false,
                cost,
            },
            way,
        )
    }

    /// Install a line in `core`'s L1, propagating any dirty victim into the
    /// (inclusive) L2 and fixing the directory. Returns the way used.
    fn install_in_l1(
        &mut self,
        core: usize,
        line: LineAddr,
        data: [u8; LINE_BYTES],
        state: Mesi,
        dirty_since: u64,
    ) -> usize {
        let (way, victim) = self.l1s[core].insert(line, data, state, dirty_since);
        self.l1_memo[core] = (line.0, way);
        if let Some(ev) = victim {
            let l2idx = self
                .l2
                .find(ev.line)
                .expect("inclusion: L1 victim must be in L2");
            let w = self.l2.way_mut(l2idx);
            w.sharers &= !(1u64 << core);
            if w.owner == Some(core as u8) {
                w.owner = None;
            }
            if ev.state == Mesi::Modified {
                w.fold_modified(ev.data, ev.dirty_since);
            }
        }
        way
    }

    /// Evict the occupant of L2 way `way`: back-invalidate L1 copies,
    /// write the line to NVMM if dirty, and free the way. The eviction is
    /// attributed to the requesting `core` for queue-timing purposes.
    fn evict_l2_way(&mut self, way: usize, now: u64, core: usize) {
        let (line, sharers) = {
            let w = self.l2.way(way);
            (w.line, w.sharers)
        };
        for o in sharer_bits(sharers) {
            if let Some(ev) = self.l1s[o].invalidate(line) {
                self.stats.coherence_invalidations += 1;
                if ev.state == Mesi::Modified {
                    self.l2.way_mut(way).fold_modified(ev.data, ev.dirty_since);
                }
            }
        }
        let (dirty, data, dirty_since) = {
            let w = self.l2.way(way);
            (w.dirty, w.data, w.dirty_since)
        };
        if dirty {
            let w = self.mc.schedule_write(line, now, core);
            self.retire_pending_line(line);
            self.nvmm.write_line(line, &data);
            if !w.merged {
                self.stats.record_write(WriteCause::Eviction);
                self.stats
                    .record_volatility(now.saturating_sub(dirty_since));
            }
            self.observer.emit(MemEvent::LineDurable {
                line,
                cycle: now,
                cause: WriteCause::Eviction,
            });
        }
        self.l2.way_mut(way).drop_line();
    }

    /// `clflushopt` (`keep == false`) or `clwb` (`keep == true`) of one
    /// line: write the freshest dirty copy (if any) to NVMM via the ADR
    /// write queue, invalidating (or retaining clean) the cached copies.
    ///
    /// No-op after a crash.
    pub fn flush_line(
        &mut self,
        line: LineAddr,
        now: u64,
        keep: bool,
        core: usize,
    ) -> FlushOutcome {
        if self.crashed {
            return FlushOutcome {
                issue_cost: 0,
                completion: now,
            };
        }
        let mut dirty = false;
        let mut data = [0u8; LINE_BYTES];
        let mut dirty_since = u64::MAX;
        if let Some(l2idx) = self.l2.find(line) {
            let sharers = self.l2.way(l2idx).sharers;
            for o in sharer_bits(sharers) {
                if keep {
                    if let Some(i1) = self.l1s[o].find(line) {
                        let w1 = self.l1s[o].way_mut(i1);
                        if w1.state == Mesi::Modified {
                            dirty = true;
                            data = w1.data;
                            dirty_since = dirty_since.min(w1.dirty_since);
                            w1.state = Mesi::Exclusive;
                        }
                    }
                } else if let Some(ev) = self.l1s[o].invalidate(line) {
                    if ev.state == Mesi::Modified {
                        dirty = true;
                        data = ev.data;
                        dirty_since = dirty_since.min(ev.dirty_since);
                    }
                }
            }
            let w = self.l2.way_mut(l2idx);
            if w.dirty {
                if !dirty {
                    data = w.data;
                }
                dirty = true;
                dirty_since = dirty_since.min(w.dirty_since);
            } else if !dirty {
                data = w.data;
            }
            if keep {
                if dirty {
                    w.data = data;
                }
                w.dirty = false;
                w.dirty_since = 0;
            } else {
                w.drop_line();
            }
        }
        let issue_cost = 2;
        if dirty {
            let w = self.mc.schedule_write(line, now, core);
            if self.adr_tracking {
                // The writeback lands in the image now, but ADR only
                // guarantees it once the issuing core fences: record the
                // pre-image so a crash model can revert it.
                let mut pre = [0u8; LINE_BYTES];
                self.nvmm.read_line(line, &mut pre);
                self.pending_flushes.push(PendingFlush {
                    line,
                    pre,
                    data,
                    core,
                });
            }
            self.nvmm.write_line(line, &data);
            if !w.merged {
                self.stats.record_write(if keep {
                    WriteCause::Clwb
                } else {
                    WriteCause::Flush
                });
                self.stats
                    .record_volatility(now.saturating_sub(dirty_since));
            }
            self.observer.emit(MemEvent::LineDurable {
                line,
                cycle: now,
                cause: if keep {
                    WriteCause::Clwb
                } else {
                    WriteCause::Flush
                },
            });
            FlushOutcome {
                issue_cost,
                completion: w.completion,
            }
        } else {
            FlushOutcome {
                issue_cost,
                completion: now,
            }
        }
    }

    /// Write back (without evicting) every dirty line in the hierarchy.
    /// Used by the periodic cleaner and by harness-requested drains.
    /// Returns the number of lines written.
    pub fn writeback_all_dirty(&mut self, now: u64, cause: WriteCause) -> u64 {
        let mut written = 0;
        let mut from = 0;
        while let Some(way) = self.l2.next_filled_way(from) {
            from = way + 1;
            let w = self.l2.way(way);
            if !w.valid {
                continue;
            }
            let (line, mut dirty, mut data) = (w.line, w.dirty, w.data);
            let mut dirty_since = if w.dirty { w.dirty_since } else { u64::MAX };
            if let Some((o, i1)) = self.modified_l1_copy(way) {
                let w1 = self.l1s[o].way_mut(i1);
                data = w1.data;
                dirty_since = dirty_since.min(w1.dirty_since);
                dirty = true;
                w1.state = Mesi::Exclusive;
            }
            if dirty {
                self.retire_pending_line(line);
                self.nvmm.write_line(line, &data);
                self.stats.record_write(cause);
                self.stats
                    .record_volatility(now.saturating_sub(dirty_since));
                self.observer.emit(MemEvent::LineDurable {
                    line,
                    cycle: now,
                    cause,
                });
                let w = self.l2.way_mut(way);
                w.data = data;
                w.dirty = false;
                w.dirty_since = 0;
                written += 1;
            }
        }
        written
    }

    /// Bookkeeping after every core-issued memory operation: advance the
    /// global clock, record a crash-point candidate if tracking is on,
    /// run the cleaner if due, capture any due census snapshot, and
    /// evaluate the crash trigger.
    ///
    /// `candidate` marks ops after which a crash can expose a new NVMM
    /// state (stores, flushes, fences — not loads).
    #[inline]
    pub fn after_op(&mut self, core_now: u64, candidate: bool) {
        self.global_time = self.global_time.max(core_now);
        self.mem_ops += 1;
        if !self.quiet_ops {
            self.after_op_instrumented(candidate);
        }
    }

    /// The instrumented tail of [`MemSystem::after_op`]: candidate
    /// recording, cleaner sweeps, census snapshots, and the crash trigger.
    /// Split out so uninstrumented runs pay a single predicted branch.
    fn after_op_instrumented(&mut self, candidate: bool) {
        if self.candidate_tracking && candidate {
            self.crash_candidates.push(self.mem_ops);
        }
        if let Some(cleaner) = &mut self.cleaner {
            if cleaner.due(self.global_time) {
                let t = self.global_time;
                self.writeback_all_dirty(t, WriteCause::Cleaner);
            }
        }
        // Snapshot capture sits exactly where the crash trigger evaluates
        // (after the cleaner), so the census recorded here is
        // byte-identical to the one a crash at this op would capture.
        while self
            .snapshot_points
            .get(self.snapshot_cursor)
            .is_some_and(|&p| self.mem_ops >= p)
        {
            let p = self.snapshot_points[self.snapshot_cursor];
            let census = self.build_census();
            self.snapshots.push((p, census));
            self.snapshot_cursor += 1;
        }
        if let Some(trigger) = self.trigger {
            let fire = match trigger {
                CrashTrigger::AfterMemOps(n) => self.mem_ops >= n,
                CrashTrigger::AfterNvmmWrites(n) => self.stats.nvmm_writes() >= n,
                CrashTrigger::AtCycle(c) => self.global_time >= c,
            };
            if fire && !self.crashed {
                self.crashed = true;
                self.observer.emit(MemEvent::Crash {
                    cycle: self.global_time,
                });
            }
        }
    }

    /// Read `len` bytes at `addr` from the coherent view (freshest cached
    /// copy if present, else NVMM). Untimed; for assertions and debugging.
    pub fn read_coherent(&self, line: LineAddr, buf: &mut [u8; LINE_BYTES]) {
        if let Some(l2idx) = self.l2.find(line) {
            *buf = match self.modified_l1_copy(l2idx) {
                Some((o, i1)) => self.l1s[o].way(i1).data,
                None => self.l2.way(l2idx).data,
            };
        } else {
            self.nvmm.read_line(line, buf);
        }
    }

    /// Read a scalar from way `way` of `core`'s L1. `way` must come from
    /// [`MemSystem::ensure_in_l1_probed`] for `addr`'s line, with no
    /// intervening cache operation. Allocations are line-aligned, so a
    /// `PArray` element never straddles a line.
    pub(crate) fn l1_read_scalar_at<T: crate::mem::Scalar>(
        &self,
        core: usize,
        way: usize,
        addr: crate::addr::Addr,
    ) -> T {
        let off = addr.line_offset();
        debug_assert!(off + T::SIZE <= LINE_BYTES, "scalar straddles a line");
        let w = self.l1s[core].way(way);
        debug_assert_eq!(w.line, addr.line(), "stale way index");
        let mut bits = [0u8; 8];
        bits[..T::SIZE].copy_from_slice(&w.data[off..off + T::SIZE]);
        T::from_bits64(u64::from_le_bytes(bits))
    }

    /// Write a scalar into way `way` of `core`'s L1, which must hold the
    /// line `Modified` (same contract as [`MemSystem::l1_read_scalar_at`]).
    pub(crate) fn l1_write_scalar_at<T: crate::mem::Scalar>(
        &mut self,
        core: usize,
        way: usize,
        addr: crate::addr::Addr,
        v: T,
    ) {
        let off = addr.line_offset();
        debug_assert!(off + T::SIZE <= LINE_BYTES, "scalar straddles a line");
        let w = self.l1s[core].way_mut(way);
        debug_assert_eq!(w.line, addr.line(), "stale way index");
        debug_assert_eq!(
            w.state,
            Mesi::Modified,
            "writing a line without write permission"
        );
        let bits = v.to_bits64().to_le_bytes();
        w.data[off..off + T::SIZE].copy_from_slice(&bits[..T::SIZE]);
    }

    /// Check the structural coherence invariants and return the first
    /// violation found, if any:
    ///
    /// 1. *Inclusion*: every valid L1 line exists in the L2.
    /// 2. *Directory soundness*: a core holds a line iff its bit is set in
    ///    the L2 sharers mask.
    /// 3. *Single owner*: at most one core holds a line `Exclusive` or
    ///    `Modified`, it matches the directory owner, and no other core
    ///    holds the line at all while it does.
    /// 4. *Shared is clean everywhere or owned nowhere*: a line with
    ///    multiple sharers has every copy `Shared`.
    /// 5. *Fill map*: every valid L1/L2 way has its fill bit set, so the
    ///    fill-map walks (`valid_ways`, `wipe`, `reset`, drains) miss no
    ///    line.
    ///
    /// Intended for tests and debugging (walks every way of every array,
    /// independently of the fill maps).
    pub fn check_invariants(&self) -> Result<(), String> {
        // 1 + 2 (forward) + 5: each L1 line is filled, and in L2 with our
        // bit set.
        for (c, l1) in self.l1s.iter().enumerate() {
            for idx in (0..l1.num_ways()).filter(|&i| l1.way(i).state != Mesi::Invalid) {
                let w1 = l1.way(idx);
                if !l1.is_filled(idx) {
                    return Err(format!(
                        "fill map: core {c} way {idx} holds {} with its fill bit clear",
                        w1.line
                    ));
                }
                let Some(l2idx) = self.l2.find(w1.line) else {
                    return Err(format!("inclusion: core {c} holds {} not in L2", w1.line));
                };
                let w2 = self.l2.way(l2idx);
                if w2.sharers & (1 << c) == 0 {
                    return Err(format!(
                        "directory: core {c} holds {} but sharer bit clear",
                        w1.line
                    ));
                }
                if matches!(w1.state, Mesi::Exclusive | Mesi::Modified) && w2.owner != Some(c as u8)
                {
                    return Err(format!(
                        "owner: core {c} has {} in {:?} but directory owner is {:?}",
                        w1.line, w1.state, w2.owner
                    ));
                }
            }
        }
        // 2 (backward) + 3 + 4 + 5 from the directory side.
        for l2idx in (0..self.l2.num_ways()).filter(|&i| self.l2.way(i).valid) {
            let w2 = self.l2.way(l2idx);
            if !self.l2.is_filled(l2idx) {
                return Err(format!(
                    "fill map: L2 way {l2idx} holds {} with its fill bit clear",
                    w2.line
                ));
            }
            let mut holders = 0u32;
            let mut exclusive_holder = None;
            for c in sharer_bits(w2.sharers) {
                let Some(i1) = self.l1s[c].find(w2.line) else {
                    return Err(format!(
                        "directory: sharer bit for core {c} on {} but no L1 copy",
                        w2.line
                    ));
                };
                holders += 1;
                let st = self.l1s[c].way(i1).state;
                if matches!(st, Mesi::Exclusive | Mesi::Modified) {
                    if exclusive_holder.is_some() {
                        return Err(format!("two exclusive holders of {}", w2.line));
                    }
                    exclusive_holder = Some(c);
                }
            }
            if let Some(o) = w2.owner {
                if w2.sharers != 1u64 << o {
                    return Err(format!(
                        "owner {o} of {} coexists with sharers {:#b}",
                        w2.line, w2.sharers
                    ));
                }
            } else if let Some(c) = exclusive_holder {
                return Err(format!(
                    "core {c} holds {} exclusively without directory ownership",
                    w2.line
                ));
            }
            if holders > 1 && exclusive_holder.is_some() {
                return Err(format!("shared line {} has an exclusive copy", w2.line));
            }
        }
        Ok(())
    }

    /// Number of cleaner sweeps performed so far.
    pub fn cleaner_sweeps(&self) -> u64 {
        self.cleaner.as_ref().map_or(0, |c| c.sweeps)
    }

    /// Number of currently dirty lines anywhere in the hierarchy.
    #[cfg(test)]
    fn dirty_lines(&self) -> usize {
        self.l2
            .valid_ways()
            .filter(|&i| self.l2.way(i).dirty || self.modified_l1_copy(i).is_some())
            .count()
    }

    #[cfg(test)]
    pub(crate) fn l1(&self, core: usize) -> &L1Cache {
        &self.l1s[core]
    }

    #[cfg(test)]
    pub(crate) fn l2(&self) -> &L2Cache {
        &self.l2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;

    fn small_cfg() -> MachineConfig {
        MachineConfig::default()
            .with_cores(2)
            .with_l1_bytes(1024)
            .with_l2_bytes(4096)
            .with_nvmm_bytes(1 << 20)
    }

    fn write_u64(ms: &mut MemSystem, core: usize, addr: Addr, v: u64, now: u64) {
        let line = addr.line();
        ms.ensure_in_l1(core, line, now, true);
        let idx = ms.l1s[core].find(line).unwrap();
        let off = addr.line_offset();
        ms.l1s[core].way_mut(idx).data[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    fn read_u64(ms: &mut MemSystem, core: usize, addr: Addr, now: u64) -> u64 {
        let line = addr.line();
        ms.ensure_in_l1(core, line, now, false);
        let idx = ms.l1s[core].find(line).unwrap();
        let off = addr.line_offset();
        let mut b = [0u8; 8];
        b.copy_from_slice(&ms.l1s[core].way(idx).data[off..off + 8]);
        u64::from_le_bytes(b)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut ms = MemSystem::new(small_cfg());
        let line = LineAddr(10);
        let a1 = ms.ensure_in_l1(0, line, 0, false);
        assert!(!a1.l1_hit);
        assert!(a1.cost >= ms.cfg.nvmm_read_cycles());
        assert_eq!(ms.stats.l2_misses, 1);
        let a2 = ms.ensure_in_l1(0, line, a1.cost, false);
        assert!(a2.l1_hit);
        assert_eq!(a2.cost, L1_LATENCY);
        assert_eq!(ms.stats.l2_misses, 1);
    }

    #[test]
    fn store_marks_modified_and_owner() {
        let mut ms = MemSystem::new(small_cfg());
        let line = LineAddr(5);
        ms.ensure_in_l1(0, line, 7, true);
        let i1 = ms.l1(0).find(line).unwrap();
        assert_eq!(ms.l1(0).way(i1).state, Mesi::Modified);
        assert_eq!(ms.l1(0).way(i1).dirty_since, 7);
        let l2idx = ms.l2().find(line).unwrap();
        assert_eq!(ms.l2().way(l2idx).owner, Some(0));
    }

    #[test]
    fn read_sharing_downgrades_owner() {
        let mut ms = MemSystem::new(small_cfg());
        let addr = Addr(64 * 3);
        write_u64(&mut ms, 0, addr, 99, 0);
        // Core 1 reads: must see 99 via recall, both end Shared.
        let v = read_u64(&mut ms, 1, addr, 10);
        assert_eq!(v, 99);
        assert_eq!(ms.stats.coherence_recalls, 1);
        let line = addr.line();
        let s0 = ms.l1(0).way(ms.l1(0).find(line).unwrap()).state;
        let s1 = ms.l1(1).way(ms.l1(1).find(line).unwrap()).state;
        assert_eq!(s0, Mesi::Shared);
        assert_eq!(s1, Mesi::Shared);
        // L2 must now hold the dirty data.
        let l2idx = ms.l2().find(line).unwrap();
        assert!(ms.l2().way(l2idx).dirty);
        assert_eq!(ms.l2().way(l2idx).owner, None);
    }

    #[test]
    fn write_invalidates_peers() {
        let mut ms = MemSystem::new(small_cfg());
        let addr = Addr(64 * 8);
        write_u64(&mut ms, 0, addr, 1, 0);
        write_u64(&mut ms, 1, addr, 2, 5);
        let line = addr.line();
        assert!(ms.l1(0).find(line).is_none(), "core 0 copy invalidated");
        let i1 = ms.l1(1).find(line).unwrap();
        assert_eq!(ms.l1(1).way(i1).state, Mesi::Modified);
        // Value visible to core 0 again via coherence.
        let v = read_u64(&mut ms, 0, addr, 10);
        assert_eq!(v, 2);
    }

    #[test]
    fn shared_upgrade_invalidates_and_takes_ownership() {
        let mut ms = MemSystem::new(small_cfg());
        let addr = Addr(64 * 2);
        // Both cores read -> Shared.
        read_u64(&mut ms, 0, addr, 0);
        read_u64(&mut ms, 1, addr, 0);
        let line = addr.line();
        // Core 0 writes: upgrade.
        write_u64(&mut ms, 0, addr, 42, 1);
        assert!(ms.l1(1).find(line).is_none());
        let l2idx = ms.l2().find(line).unwrap();
        assert_eq!(ms.l2().way(l2idx).owner, Some(0));
        assert_eq!(ms.l2().way(l2idx).sharers, 1);
    }

    #[test]
    fn flush_writes_dirty_line_to_nvmm() {
        let mut ms = MemSystem::new(small_cfg());
        let addr = Addr(64 * 4);
        write_u64(&mut ms, 0, addr, 77, 0);
        let out = ms.flush_line(addr.line(), 100, false, 0);
        assert!(out.completion >= 100 + ms.cfg.nvmm_write_cycles());
        assert_eq!(ms.stats.nvmm_writes_flush, 1);
        // Line gone from caches; durable image has the value.
        assert!(ms.l1(0).find(addr.line()).is_none());
        assert!(ms.l2().find(addr.line()).is_none());
        let mut buf = [0u8; 8];
        ms.nvmm().peek_bytes(addr, &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 77);
    }

    #[test]
    fn clwb_retains_clean_line() {
        let mut ms = MemSystem::new(small_cfg());
        let addr = Addr(64 * 6);
        write_u64(&mut ms, 0, addr, 55, 0);
        ms.flush_line(addr.line(), 50, true, 0);
        assert_eq!(ms.stats.nvmm_writes_clwb, 1);
        // Still cached, now clean (Exclusive).
        let i1 = ms.l1(0).find(addr.line()).unwrap();
        assert_eq!(ms.l1(0).way(i1).state, Mesi::Exclusive);
        // Flushing again writes nothing.
        let out = ms.flush_line(addr.line(), 60, false, 0);
        assert_eq!(out.completion, 60);
        assert_eq!(ms.stats.nvmm_writes(), 1);
    }

    #[test]
    fn flush_clean_or_absent_is_cheap() {
        let mut ms = MemSystem::new(small_cfg());
        let out = ms.flush_line(LineAddr(1234), 10, false, 0);
        assert_eq!(out.completion, 10);
        assert_eq!(ms.stats.nvmm_writes(), 0);
    }

    #[test]
    fn capacity_eviction_writes_back_dirty() {
        // L1 1 KB (16 lines), L2 4 KB (64 lines, 8 sets of 8).
        let mut ms = MemSystem::new(small_cfg());
        // Dirty one line, then stream enough lines through the same L2 set
        // to force its eviction. L2 has 8 sets -> lines k*8 map to set 0.
        write_u64(&mut ms, 0, Addr(0), 13, 0);
        for k in 1..=9u64 {
            read_u64(&mut ms, 0, Addr(k * 8 * 64), k);
        }
        assert!(ms.stats.nvmm_writes_eviction >= 1);
        let mut buf = [0u8; 8];
        ms.nvmm().peek_bytes(Addr(0), &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 13, "dirty data reached NVMM");
    }

    #[test]
    fn crash_discards_cached_dirty_data() {
        let mut ms = MemSystem::new(small_cfg());
        write_u64(&mut ms, 0, Addr(0), 21, 0);
        ms.force_crash();
        assert!(ms.crashed());
        // Ops are no-ops while crashed.
        let a = ms.ensure_in_l1(0, LineAddr(0), 1, false);
        assert_eq!(a.cost, 0);
        ms.acknowledge_crash();
        assert!(!ms.crashed());
        // The dirty value never reached NVMM.
        let v = read_u64(&mut ms, 0, Addr(0), 2);
        assert_eq!(v, 0);
    }

    #[test]
    fn crash_trigger_after_mem_ops() {
        let mut ms = MemSystem::new(small_cfg());
        ms.set_crash_trigger(Some(CrashTrigger::AfterMemOps(3)));
        for i in 0..5u64 {
            ms.ensure_in_l1(0, LineAddr(i), i, false);
            ms.after_op(i, true);
        }
        assert!(ms.crashed());
        // Only 3 ops were actually processed as real accesses.
        assert_eq!(ms.mem_ops(), 5); // after_op still counts, accesses no-op
    }

    #[test]
    fn writeback_all_dirty_cleans_hierarchy() {
        let mut ms = MemSystem::new(small_cfg());
        write_u64(&mut ms, 0, Addr(0), 1, 0);
        write_u64(&mut ms, 0, Addr(64), 2, 0);
        write_u64(&mut ms, 1, Addr(128), 3, 0);
        assert_eq!(ms.dirty_lines(), 3);
        let n = ms.writeback_all_dirty(100, WriteCause::Drain);
        assert_eq!(n, 3);
        assert_eq!(ms.dirty_lines(), 0);
        assert_eq!(ms.stats.nvmm_writes_drain, 3);
        let mut buf = [0u8; 8];
        ms.nvmm().peek_bytes(Addr(64), &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 2);
        // Data still cached (write back, not evict).
        assert!(ms.l2().find(LineAddr(0)).is_some());
    }

    #[test]
    fn volatility_duration_recorded_on_writeback() {
        let mut ms = MemSystem::new(small_cfg());
        write_u64(&mut ms, 0, Addr(0), 9, 100);
        ms.writeback_all_dirty(350, WriteCause::Drain);
        assert_eq!(ms.stats.max_volatility, 250);
        assert_eq!(ms.stats.volatility_samples, 1);
    }

    #[test]
    fn read_coherent_sees_freshest_copy() {
        let mut ms = MemSystem::new(small_cfg());
        write_u64(&mut ms, 0, Addr(0), 1234, 0);
        let mut buf = [0u8; LINE_BYTES];
        ms.read_coherent(LineAddr(0), &mut buf);
        let mut b = [0u8; 8];
        b.copy_from_slice(&buf[0..8]);
        assert_eq!(u64::from_le_bytes(b), 1234);
    }

    #[test]
    fn flush_of_shared_line_invalidates_all_copies() {
        let mut ms = MemSystem::new(small_cfg());
        let addr = Addr(64 * 5);
        write_u64(&mut ms, 0, addr, 7, 0);
        read_u64(&mut ms, 1, addr, 5); // both cores share the line
        ms.flush_line(addr.line(), 10, false, 1);
        assert_eq!(
            ms.stats.nvmm_writes_flush, 1,
            "recalled dirty data written back"
        );
        assert!(ms.l1(0).find(addr.line()).is_none());
        assert!(ms.l1(1).find(addr.line()).is_none());
        assert!(ms.l2().find(addr.line()).is_none());
        let mut buf = [0u8; 8];
        ms.nvmm().peek_bytes(addr, &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 7);
        assert!(ms.check_invariants().is_ok());
    }

    #[test]
    fn clwb_of_shared_clean_line_writes_nothing() {
        let mut ms = MemSystem::new(small_cfg());
        let addr = Addr(64 * 7);
        read_u64(&mut ms, 0, addr, 0);
        read_u64(&mut ms, 1, addr, 0);
        let out = ms.flush_line(addr.line(), 5, true, 0);
        assert_eq!(out.completion, 5);
        assert_eq!(ms.stats.nvmm_writes(), 0);
        assert!(ms.l1(0).find(addr.line()).is_some(), "clwb retains lines");
        assert!(ms.l1(1).find(addr.line()).is_some());
        assert!(ms.check_invariants().is_ok());
    }

    #[test]
    fn invariants_hold_through_a_mixed_workout() {
        let mut ms = MemSystem::new(small_cfg());
        for step in 0..400u64 {
            let core = (step % 2) as usize;
            let addr = Addr((step * 24) % 2048);
            if step % 3 == 0 {
                write_u64(&mut ms, core, addr, step, step);
            } else if step % 7 == 0 {
                ms.flush_line(addr.line(), step, step % 2 == 0, core);
            } else {
                read_u64(&mut ms, core, addr, step);
            }
            assert_eq!(ms.check_invariants(), Ok(()), "after step {step}");
        }
    }

    #[test]
    fn invariants_catch_a_valid_way_missing_its_fill_bit() {
        let filled = || {
            let mut ms = MemSystem::new(small_cfg());
            write_u64(&mut ms, 0, Addr(64 * 3), 1, 0);
            assert_eq!(ms.check_invariants(), Ok(()));
            ms
        };
        let mut ms = filled();
        ms.l1s[0].forget_fills();
        assert!(ms
            .check_invariants()
            .is_err_and(|e| e.starts_with("fill map: core 0")));
        let mut ms = filled();
        ms.l2.forget_fills();
        assert!(ms
            .check_invariants()
            .is_err_and(|e| e.starts_with("fill map: L2")));
    }

    #[test]
    fn upgrade_of_sole_shared_copy_succeeds() {
        let mut ms = MemSystem::new(small_cfg());
        let addr = Addr(64 * 9);
        // Shared between both, then one evicts... simplest: both read,
        // core 1's copy invalidated by core 0's write, then core 0 writes
        // again while sole owner.
        read_u64(&mut ms, 0, addr, 0);
        read_u64(&mut ms, 1, addr, 0);
        write_u64(&mut ms, 0, addr, 1, 1);
        write_u64(&mut ms, 0, addr, 2, 2);
        assert_eq!(read_u64(&mut ms, 0, addr, 3), 2);
        assert!(ms.check_invariants().is_ok());
    }

    #[test]
    fn invalidate_everywhere_drops_without_writeback() {
        let mut ms = MemSystem::new(small_cfg());
        write_u64(&mut ms, 0, Addr(0), 5, 0);
        ms.invalidate_everywhere(LineAddr(0));
        assert!(ms.l2().find(LineAddr(0)).is_none());
        assert_eq!(ms.stats.nvmm_writes(), 0);
        let v = read_u64(&mut ms, 0, Addr(0), 1);
        assert_eq!(v, 0);
    }

    /// Drive the same store/flush/store sequence on a fresh machine,
    /// either crashing at op 3 or snapshotting op 3, and return the
    /// census either way.
    fn census_at_op_3(snapshot: bool) -> CrashCensus {
        let mut ms = MemSystem::new(small_cfg());
        ms.set_adr_tracking(true);
        if snapshot {
            ms.set_snapshot_points(&[3]);
        } else {
            ms.set_crash_trigger(Some(CrashTrigger::AfterMemOps(3)));
        }
        write_u64(&mut ms, 0, Addr(0), 7, 0);
        ms.after_op(0, true); // op 1
        ms.flush_line(LineAddr(0), 1, false, 0); // un-fenced: maybe-durable
        ms.after_op(1, true); // op 2
        write_u64(&mut ms, 0, Addr(64), 9, 2);
        ms.after_op(2, true); // op 3 — crash / snapshot here
        if !ms.crashed() {
            write_u64(&mut ms, 0, Addr(128), 11, 3);
            ms.after_op(3, true); // op 4 — only reached without a crash
        }
        if snapshot {
            let mut snaps = ms.take_snapshots();
            assert_eq!(snaps.len(), 1);
            assert_eq!(snaps[0].0, 3);
            snaps.pop().unwrap().1
        } else {
            ms.acknowledge_crash();
            ms.take_crash_census().expect("crash captured a census")
        }
    }

    #[test]
    fn snapshot_census_matches_crash_census_at_same_op() {
        let crashed = census_at_op_3(false);
        let snapped = census_at_op_3(true);
        assert_eq!(crashed.entries.len(), snapped.entries.len());
        for (a, b) in crashed.entries.iter().zip(snapped.entries.iter()) {
            assert_eq!(a.line, b.line);
            assert_eq!(a.data, b.data);
            assert_eq!(a.origin, b.origin);
        }
        for line in [0u64, 64, 128] {
            let mut a = [0u8; 8];
            let mut b = [0u8; 8];
            crashed.base.peek_bytes(Addr(line), &mut a);
            snapped.base.peek_bytes(Addr(line), &mut b);
            assert_eq!(a, b, "floor image differs at byte {line}");
        }
    }

    #[test]
    fn snapshot_run_continues_past_the_point() {
        let mut ms = MemSystem::new(small_cfg());
        ms.set_adr_tracking(true);
        ms.set_snapshot_points(&[2, 2, 1]); // dedup + sort
        for i in 0..4u64 {
            write_u64(&mut ms, 0, Addr(i * 64), i, i);
            ms.after_op(i, true);
        }
        assert!(!ms.crashed(), "snapshots never crash the machine");
        assert_eq!(ms.mem_ops(), 4, "the run completed");
        let snaps = ms.take_snapshots();
        assert_eq!(snaps.iter().map(|(p, _)| *p).collect::<Vec<_>>(), [1, 2]);
        // Later snapshots see strictly more maybe-durable lines.
        assert!(snaps[0].1.entries.len() <= snaps[1].1.entries.len());
        assert!(ms.take_snapshots().is_empty(), "taking disarms");
    }

    #[test]
    fn candidate_tracking_records_marked_ops_only() {
        let mut ms = MemSystem::new(small_cfg());
        ms.set_candidate_tracking(true);
        ms.after_op(0, true); // op 1: store-like
        ms.after_op(1, false); // op 2: load-like
        ms.after_op(2, true); // op 3: flush-like
        assert_eq!(ms.take_crash_candidates(), vec![1, 3]);
        // Taking disarms: later ops are not recorded.
        ms.after_op(3, true);
        assert!(ms.take_crash_candidates().is_empty());
    }
}
