//! A uniform per-region persistency API so each kernel is written once and
//! runs under any scheme the paper evaluates (Table IV): `base`, `+LP`,
//! `+EP` (EagerRecompute), `+WAL`.
//!
//! A kernel wraps each persistency region in
//! [`ThreadPersist::begin`] … [`ThreadPersist::commit`] and routes every
//! result store through [`ThreadPersist::store`]. What that costs depends
//! on the scheme:
//!
//! | scheme | per store | at commit | flushes, fences per store | per commit |
//! |--------|-----------|-----------|------|------|
//! | `Base` | plain store | nothing | 0, 0 | 0, 0 |
//! | `Lazy(kind)` | store + checksum update | one lazy store of the checksum | 0, 0 | 0, 0 |
//! | `LazyParity(kind)` | store + checksum update + parity-lane XOR | checksum store, then the parity line | 0, 0 | 0, 0 |
//! | `LazyEagerCk(kind)` | store + checksum update | checksum store + flush + fence | 0, 0 | 1, 1 |
//! | `Eager` | store + immediate `clflushopt` | fence, then durable marker | 1, 0 | 1, 2 |
//! | `Wal` | undo-log append (flushed) + staged store | Figure 2's flush+fence rounds | 3, 0 | 6, 4 |
//!
//! The flush and fence counts are exact: a kernel whose regions make `S`
//! data stores and `C` commits issues `S × per store + C × per commit` of
//! each, as the `flushes=`/`fences=` columns of the kernels'
//! `micro_invariance` golden pin for every kernel (TMM at `Scale::Micro`
//! under `Wal`: 256 stores and 2 commits make 3·256 + 6·2 = 780 flushes
//! and 4·2 = 8 fences).

use crate::checksum::{ChecksumKind, RunningChecksum};
use crate::parity::{lane_of, ParityArena, PARITY_FOLD_OPS};
use crate::table::ChecksumTable;
use crate::track::{RangeRole, TrackedRange};
use crate::wal::{WalArena, WalTx};
use lp_sim::core::CoreCtx;
use lp_sim::machine::Machine;
use lp_sim::mem::{OutOfPersistentMemory, PArray, Scalar};

/// Which failure-safety technique a run uses (Table IV of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// No failure safety (the normalization baseline).
    Base,
    /// Lazy Persistency with the given checksum (this paper's proposal).
    Lazy(ChecksumKind),
    /// Lazy Persistency plus a per-region XOR parity line, so recovery can
    /// *repair* a single lost line in place (Pangolin-style) instead of
    /// recomputing the whole region — the rung-1 entry of the escalation
    /// ladder parity repair → region recompute → EP re-execution.
    LazyParity(ChecksumKind),
    /// Lazy Persistency for the data but *eager* persistence for the
    /// checksum itself (flush + fence at commit) — the alternative
    /// Section III-D weighs and rejects; kept as an ablation.
    LazyEagerCk(ChecksumKind),
    /// EagerRecompute: flush-as-it-goes + durable progress marker.
    Eager,
    /// Durable transactions with software write-ahead logging.
    Wal,
}

impl Scheme {
    /// Display name matching the paper's figure labels.
    pub fn name(&self) -> String {
        match self {
            Scheme::Base => "base".into(),
            Scheme::Lazy(k) => format!("LP({k})"),
            Scheme::LazyParity(k) => format!("LP+par({k})"),
            Scheme::LazyEagerCk(k) => format!("LP({k}, eager-ck)"),
            Scheme::Eager => "EP".into(),
            Scheme::Wal => "WAL".into(),
        }
    }

    /// Lazy Persistency with the paper's default checksum (Modular).
    pub fn lazy_default() -> Self {
        Scheme::Lazy(ChecksumKind::Modular)
    }

    /// Parity-repairing Lazy Persistency with CRC-32 — the cheapest
    /// checksum that can *certify* a rung-1 parity reconstruction at any
    /// region size (see [`crate::parity::can_certify`]; Modular falls to
    /// transfer cancellation against a coexisting single-bit flip, so a
    /// Modular-paired parity arena detects but never repairs).
    pub fn lazy_parity_default() -> Self {
        Scheme::LazyParity(ChecksumKind::Crc32)
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// All persistent structures a scheme needs, allocated once per run.
#[derive(Debug, Clone)]
pub struct SchemeHandles {
    /// The scheme in force.
    pub scheme: Scheme,
    /// Checksum table (used by `Lazy`; allocated tiny otherwise).
    pub table: ChecksumTable,
    /// Per-region XOR parity lines (used by `LazyParity`; sized like the
    /// table so region keys index it collision-free).
    pub parity: ParityArena,
    /// Per-thread durable progress markers (used by `Eager`): `0` = no
    /// region completed, else `1 + key` of the last committed region.
    pub markers: PArray<u64>,
    /// Per-thread undo-log arenas (used by `Wal`).
    pub arenas: Vec<WalArena>,
}

impl SchemeHandles {
    /// Allocate the support structures for `scheme`.
    ///
    /// `table_entries` sizes the collision-free checksum table (ignored
    /// unless the scheme is `Lazy`); `threads` sizes the marker array and
    /// arena list; `wal_capacity` bounds stores per WAL transaction.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfPersistentMemory`] if the persistent heap is full.
    pub fn alloc(
        machine: &mut Machine,
        scheme: Scheme,
        table_entries: usize,
        threads: usize,
        wal_capacity: usize,
    ) -> Result<Self, OutOfPersistentMemory> {
        // The table is allocated for every scheme: Lazy uses it during
        // normal execution, and the shared recovery sinks repair entries
        // under any scheme.
        let table = ChecksumTable::alloc(machine, table_entries.max(1))?;
        // The parity arena mirrors the table: allocated for every scheme
        // (one line per key) so recovery sinks can repair parity alongside
        // checksums; only `LazyParity` writes it in the forward path.
        let parity = ParityArena::alloc(machine, table_entries.max(1))?;
        let markers = machine.alloc::<u64>(threads.max(1))?;
        for t in 0..threads.max(1) {
            machine.poke(markers, t, 0);
        }
        let arenas = if matches!(scheme, Scheme::Wal) {
            (0..threads)
                .map(|_| WalArena::alloc(machine, wal_capacity))
                .collect::<Result<Vec<_>, _>>()?
        } else {
            Vec::new()
        };
        Ok(SchemeHandles {
            scheme,
            table,
            parity,
            markers,
            arenas,
        })
    }

    /// Describe the scheme's own persistent allocations for address-range
    /// tracking (the kernel adds its protected data ranges on top).
    pub fn ranges(&self) -> Vec<TrackedRange> {
        let mut out = vec![
            TrackedRange::of("ck-table", self.table.array(), RangeRole::ChecksumTable),
            TrackedRange::of("parity", self.parity.array(), RangeRole::ParityArena),
            TrackedRange::of("markers", self.markers, RangeRole::Markers),
        ];
        for (t, arena) in self.arenas.iter().enumerate() {
            out.push(TrackedRange::of(
                format!("wal{t}.entries"),
                arena.entries_array(),
                RangeRole::WalEntries,
            ));
            out.push(TrackedRange::of(
                format!("wal{t}.header"),
                arena.header_array(),
                RangeRole::WalHeader,
            ));
        }
        out
    }

    /// The per-thread view used inside region closures (cheap, `Copy`).
    ///
    /// # Panics
    ///
    /// Panics if `tid` has no WAL arena under the `Wal` scheme.
    pub fn thread(&self, tid: usize) -> ThreadPersist {
        ThreadPersist {
            scheme: self.scheme,
            table: self.table,
            parity: self.parity,
            markers: self.markers,
            tid,
            arena: if matches!(self.scheme, Scheme::Wal) {
                Some(self.arenas[tid])
            } else {
                None
            },
        }
    }
}

/// Per-thread persistency runtime: everything a region closure needs.
#[derive(Debug, Clone, Copy)]
pub struct ThreadPersist {
    /// The scheme in force.
    pub scheme: Scheme,
    /// Checksum table handle.
    pub table: ChecksumTable,
    /// Parity arena handle.
    pub parity: ParityArena,
    /// Marker array handle.
    pub markers: PArray<u64>,
    /// This thread's id (marker slot).
    pub tid: usize,
    arena: Option<WalArena>,
}

/// In-flight state of one persistency region.
#[derive(Debug)]
pub struct RegionSession {
    key: usize,
    ck: Option<RunningChecksum>,
    par: Option<[u64; 8]>,
    wal: Option<WalTx>,
}

impl RegionSession {
    /// The region key this session was opened with.
    pub fn key(&self) -> usize {
        self.key
    }
}

impl ThreadPersist {
    /// Open a region with collision-free key `key` (indexes the checksum
    /// table under `Lazy`; recorded in the marker under `Eager`/`Wal`).
    ///
    /// The region boundary is announced to any installed event observer
    /// (see `lp_sim::observe`); with none installed that is a no-op.
    pub fn begin(&self, ctx: &mut CoreCtx<'_>, key: usize) -> RegionSession {
        ctx.region_begin(key);
        RegionSession {
            key,
            ck: match self.scheme {
                Scheme::Lazy(kind) | Scheme::LazyParity(kind) | Scheme::LazyEagerCk(kind) => {
                    Some(RunningChecksum::new(kind))
                }
                _ => None,
            },
            par: matches!(self.scheme, Scheme::LazyParity(_)).then_some([0u64; 8]),
            wal: self.arena.map(|a| a.begin()),
        }
    }

    /// Store one region result through the scheme.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds, or (under `Wal`) if the arena
    /// capacity is exceeded or `T` is not 8 bytes wide.
    pub fn store<T: Scalar>(
        &self,
        ctx: &mut CoreCtx<'_>,
        rs: &mut RegionSession,
        arr: PArray<T>,
        i: usize,
        v: T,
    ) {
        match self.scheme {
            Scheme::Base => ctx.store(arr, i, v),
            Scheme::Lazy(kind) | Scheme::LazyEagerCk(kind) => {
                ctx.store(arr, i, v);
                let ck = rs.ck.as_mut().expect("lazy session has a checksum");
                ck.update(v.to_bits64());
                ctx.compute(kind.cost_ops());
            }
            Scheme::LazyParity(kind) => {
                ctx.store(arr, i, v);
                let ck = rs.ck.as_mut().expect("lazy session has a checksum");
                ck.update(v.to_bits64());
                let par = rs.par.as_mut().expect("parity session has lanes");
                par[lane_of(arr.addr(i))] ^= v.to_bits64();
                ctx.compute(kind.cost_ops() + PARITY_FOLD_OPS);
            }
            Scheme::Eager => {
                // EagerRecompute persists computation *as it goes*
                // (Section V-C): every result store is immediately pushed
                // toward NVMM. This is what defeats same-line coalescing
                // and produces the paper's Table VI hazard explosion; the
                // region-end fence then only waits for the stragglers.
                ctx.store(arr, i, v);
                ctx.clflushopt(arr.addr(i));
            }
            Scheme::Wal => {
                rs.wal
                    .as_mut()
                    .expect("wal session has a transaction")
                    .log_and_stage(ctx, arr, i, v);
            }
        }
    }

    /// Close the region: persist per the scheme (see module docs).
    pub fn commit(&self, ctx: &mut CoreCtx<'_>, rs: RegionSession) {
        match self.scheme {
            Scheme::Base => {}
            Scheme::Lazy(_) => {
                let ck = rs.ck.expect("lazy session has a checksum");
                self.table.store(ctx, rs.key, ck.value());
            }
            Scheme::LazyParity(_) => {
                // Publication order is part of the R8 discipline: the
                // parity line is the *last* thing the region publishes —
                // never observable ahead of data it summarizes. All stores
                // are lazy; the failure-free path still has no flush or
                // fence.
                let ck = rs.ck.expect("lazy session has a checksum");
                self.table.store(ctx, rs.key, ck.value());
                let par = rs.par.expect("parity session has lanes");
                self.parity.store_lanes(ctx, rs.key, &par);
            }
            Scheme::LazyEagerCk(_) => {
                let ck = rs.ck.expect("lazy session has a checksum");
                self.table.store(ctx, rs.key, ck.value());
                // The ablation's cost: flush + fence per region, paid in
                // the failure-free common case.
                self.table.persist(ctx, rs.key);
            }
            Scheme::Eager => {
                // Wait until everything the region flushed is durable,
                // then advance the durable progress marker.
                ctx.sfence();
                ctx.store(self.markers, self.tid, rs.key as u64 + 1);
                ctx.clflushopt(self.markers.addr(self.tid));
                ctx.sfence();
            }
            Scheme::Wal => {
                rs.wal
                    .expect("wal session has a transaction")
                    .commit(ctx, rs.key as u64 + 1);
            }
        }
        // Announced after the commit-path stores so the observer counts
        // them as part of the region.
        ctx.region_end();
    }

    /// This thread's durable progress marker from the durable image
    /// (`Eager` stores it in `markers`, `Wal` inside its arena header).
    pub fn peek_marker(&self, machine: &Machine) -> u64 {
        match self.scheme {
            Scheme::Wal => self
                .arena
                .map(|a| a.peek_marker(machine))
                .unwrap_or_default(),
            _ => machine.peek(self.markers, self.tid),
        }
    }

    /// This thread's durable progress marker, read through the timed
    /// memory system (`Eager` stores it in `markers`, `Wal` inside its
    /// arena header).
    ///
    /// During recovery this must be read *after* [`Self::wal_recover`]:
    /// `Wal` commits log the marker's undo pair, so rolling back an
    /// interrupted transaction rewinds the marker too. A marker read
    /// before the rollback can claim a region whose effects were just
    /// undone, and recovery would silently skip re-executing it.
    pub fn marker(&self, ctx: &mut CoreCtx<'_>) -> u64 {
        match self.scheme {
            Scheme::Wal => self.arena.map(|a| a.marker(ctx)).unwrap_or_default(),
            _ => ctx.load(self.markers, self.tid),
        }
    }

    /// Roll back an interrupted WAL transaction if one exists (no-op for
    /// other schemes). Returns the number of undone stores.
    pub fn wal_recover(&self, ctx: &mut CoreCtx<'_>) -> usize {
        self.arena.map_or(0, |a| a.recover(ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_sim::config::MachineConfig;
    use lp_sim::mem::PArray;

    fn machine() -> Machine {
        Machine::new(
            MachineConfig::default()
                .with_cores(2)
                .with_nvmm_bytes(1 << 20),
        )
    }

    fn run_region(scheme: Scheme) -> (Machine, SchemeHandles, PArray<f64>) {
        let mut m = machine();
        let arr = m.alloc::<f64>(64).unwrap();
        let h = SchemeHandles::alloc(&mut m, scheme, 16, 2, 128).unwrap();
        let tp = h.thread(0);
        {
            let mut ctx = m.ctx(0);
            let mut rs = tp.begin(&mut ctx, 3);
            for i in 0..16 {
                tp.store(&mut ctx, &mut rs, arr, i, (i + 1) as f64);
            }
            tp.commit(&mut ctx, rs);
        }
        (m, h, arr)
    }

    #[test]
    fn all_schemes_produce_the_same_values() {
        for scheme in [
            Scheme::Base,
            Scheme::lazy_default(),
            Scheme::LazyParity(ChecksumKind::Modular),
            Scheme::Eager,
            Scheme::Wal,
        ] {
            let (mut m, _, arr) = run_region(scheme);
            m.drain_caches();
            for i in 0..16 {
                assert_eq!(m.peek(arr, i), (i + 1) as f64, "{scheme} element {i}");
            }
        }
    }

    #[test]
    fn base_writes_nothing_extra() {
        let (m, _, _) = run_region(Scheme::Base);
        let s = m.stats();
        assert_eq!(s.core_totals().flushes, 0);
        assert_eq!(s.core_totals().fences, 0);
        assert_eq!(s.mem.nvmm_writes_flush, 0);
    }

    #[test]
    fn lazy_stores_checksum_without_flushes() {
        let (mut m, h, _) = run_region(Scheme::lazy_default());
        let s = m.stats();
        assert_eq!(s.core_totals().flushes, 0, "LP never flushes");
        assert_eq!(s.core_totals().fences, 0, "LP never fences");
        let mut ctx = m.ctx(0);
        assert!(h.table.load(&mut ctx, 3).is_some(), "checksum recorded");
    }

    #[test]
    fn eager_flushes_and_advances_marker() {
        let (m, h, _) = run_region(Scheme::Eager);
        let s = m.stats();
        assert!(s.core_totals().flushes >= 2, "region lines + marker");
        assert_eq!(s.core_totals().fences, 2);
        assert_eq!(h.thread(0).peek_marker(&m), 4, "marker = key + 1");
    }

    #[test]
    fn wal_is_most_expensive() {
        let (m_wal, h, _) = run_region(Scheme::Wal);
        let (m_eager, _, _) = run_region(Scheme::Eager);
        let (m_base, _, _) = run_region(Scheme::Base);
        let (wal, eager, base) = (
            m_wal.stats().exec_cycles(),
            m_eager.stats().exec_cycles(),
            m_base.stats().exec_cycles(),
        );
        assert!(wal > eager, "WAL ({wal}) slower than EP ({eager})");
        assert!(eager > base, "EP ({eager}) slower than base ({base})");
        assert!(
            m_wal.stats().nvmm_writes() > m_eager.stats().nvmm_writes(),
            "WAL writes more than EP"
        );
        assert_eq!(h.thread(0).peek_marker(&m_wal), 4);
    }

    #[test]
    fn lazy_checksum_matches_recomputation() {
        let (mut m, h, arr) = run_region(Scheme::lazy_default());
        m.drain_caches();
        let values: Vec<f64> = (0..16).map(|i| m.peek(arr, i)).collect();
        let recomputed = crate::checksum::checksum_f64s(ChecksumKind::Modular, &values);
        let mut ctx = m.ctx(0);
        assert!(h.table.matches(&mut ctx, 3, recomputed));
    }

    #[test]
    fn lazy_parity_publishes_checksum_and_parity_without_flushes() {
        let (mut m, h, arr) = run_region(Scheme::LazyParity(ChecksumKind::Modular));
        let s = m.stats();
        assert_eq!(s.core_totals().flushes, 0, "LP+par never flushes");
        assert_eq!(s.core_totals().fences, 0, "LP+par never fences");
        let mut ctx = m.ctx(0);
        assert!(h.table.load(&mut ctx, 3).is_some(), "checksum recorded");
        let mut expected = [0u64; 8];
        for i in 0..16 {
            expected[crate::parity::lane_of(arr.addr(i))] ^= ((i + 1) as f64).to_bits();
        }
        assert_eq!(
            h.parity.load_lanes(&mut ctx, 3),
            expected,
            "parity lanes are the XOR of the region's stores by word slot"
        );
    }

    #[test]
    fn marker_zero_before_any_commit() {
        let mut m = machine();
        let h = SchemeHandles::alloc(&mut m, Scheme::Eager, 1, 2, 0).unwrap();
        assert_eq!(h.thread(0).peek_marker(&m), 0);
        assert_eq!(h.thread(1).peek_marker(&m), 0);
    }

    #[test]
    fn lazy_eager_ck_persists_the_checksum_immediately() {
        let (m, h, _) = run_region(Scheme::LazyEagerCk(ChecksumKind::Modular));
        let s = m.stats();
        assert_eq!(s.core_totals().flushes, 1, "one flush: the table entry");
        assert_eq!(s.core_totals().fences, 1);
        // The entry survives an immediate crash — unlike plain Lazy.
        let mut m = m;
        m.mem_mut().force_crash();
        m.mem_mut().acknowledge_crash();
        assert!(h.table.peek(&m, 3).is_some(), "eager checksum durable");

        let (mut m2, h2, _) = run_region(Scheme::lazy_default());
        m2.mem_mut().force_crash();
        m2.mem_mut().acknowledge_crash();
        assert!(h2.table.peek(&m2, 3).is_none(), "lazy checksum lost");
    }

    #[test]
    fn lazy_eager_ck_data_is_still_lazy() {
        let (mut m, _, arr) = run_region(Scheme::LazyEagerCk(ChecksumKind::Modular));
        m.mem_mut().force_crash();
        m.mem_mut().acknowledge_crash();
        // Data wasn't flushed (only the checksum was): it is lost.
        assert!((0..16).any(|i| m.peek(arr, i) == 0.0), "data stays lazy");
    }

    #[test]
    fn scheme_names_are_distinct() {
        let names: Vec<String> = [
            Scheme::Base,
            Scheme::lazy_default(),
            Scheme::Lazy(ChecksumKind::Crc32),
            Scheme::Lazy(ChecksumKind::Parity),
            Scheme::LazyParity(ChecksumKind::Modular),
            Scheme::LazyParity(ChecksumKind::Parity),
            Scheme::LazyEagerCk(ChecksumKind::Modular),
            Scheme::Eager,
            Scheme::Wal,
        ]
        .iter()
        .map(super::Scheme::name)
        .collect();
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "{names:?}");
    }

    #[test]
    fn wal_recover_is_noop_without_open_tx() {
        let mut m = machine();
        let h = SchemeHandles::alloc(&mut m, Scheme::Wal, 1, 2, 16).unwrap();
        let tp = h.thread(1);
        let mut ctx = m.ctx(1);
        assert_eq!(tp.wal_recover(&mut ctx), 0);
    }
}
