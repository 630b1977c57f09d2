//! Tiled matrix multiplication (`tmm`) — the paper's running example
//! (Figures 3, 4, 8 and 9) and the workload behind Figures 10, 11, 14, 15
//! and Tables IV and VI.
//!
//! `c = a · b` with the standard 6-loop tiling (`kk, ii, jj, i, j, k`).
//! The LP region is one `ii` iteration within a `kk` iteration — a
//! `bsize × n` horizontal strip of `c` accumulating one `kk` partial
//! product. Threads own disjoint `ii` strips, so regions of different
//! threads never share output lines and the checksum table is indexed
//! collision-free by `(kk, ii)`.
//!
//! Regions within one `kk` are associative; across `kk` there are output
//! dependences (each `kk` accumulates into `c`), which recovery handles by
//! scanning checksums in *reverse* `kk` order per strip (Figure 9 plus the
//! per-strip "optimized Repair" the paper describes): the latest `kk` whose
//! checksum matches the surviving data identifies the strip's durable
//! state, and only later `kk` contributions are recomputed — eagerly, so
//! recovery itself makes forward progress.

use crate::common::{random_values, round_robin_blocks, PMatrix, IDX_OPS, MUL_ADD_OPS};
use crate::driver::Scale;
use crate::kernel::{newest_first, Kernel, Region, Step};
use lp_core::parity::Slot;
use lp_core::recovery::{Recovery, StoreSink};
use lp_core::scheme::{Scheme, SchemeHandles};
use lp_core::track::{RangeRole, TrackedRange};
use lp_sim::addr::LineAddr;
use lp_sim::core::CoreCtx;
use lp_sim::machine::Machine;
use lp_sim::mem::OutOfPersistentMemory;

/// Problem and windowing parameters for one tmm run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TmmParams {
    /// Matrix dimension (`n × n`); must be a multiple of `bsize`.
    pub n: usize,
    /// Tile size (paper default 16: one strip line persists with one
    /// `clflushopt`).
    pub bsize: usize,
    /// Worker threads (logical cores).
    pub threads: usize,
    /// Number of outer `kk` iterations to simulate (the paper windows tmm
    /// to 2 of `n/bsize`); capped at `n / bsize`.
    pub kk_window: usize,
    /// Seed for the deterministic random inputs.
    pub seed: u64,
}

impl TmmParams {
    /// Smallest meaningful parameters, sized for exhaustive crash-state
    /// model checking (one full replay per crash point).
    pub fn micro() -> Self {
        TmmParams {
            n: 16,
            bsize: 8,
            threads: 2,
            kk_window: 1,
            seed: 42,
        }
    }

    /// Parameters sized for fast unit tests.
    pub fn test_small() -> Self {
        TmmParams {
            n: 32,
            bsize: 8,
            threads: 2,
            kk_window: 2,
            seed: 42,
        }
    }

    /// Parameters sized like the paper's simulation window (scaled down:
    /// 256² matrices instead of 1024², same 2-`kk` window, 8 threads).
    pub fn bench_default() -> Self {
        TmmParams {
            n: 256,
            bsize: 16,
            threads: 8,
            kk_window: 2,
            seed: 42,
        }
    }

    /// The paper's exact Table IV setup: 1024² matrices, tile size 16,
    /// 8 worker threads, a 2-`kk` simulation window (1/32 of the run).
    pub fn paper_default() -> Self {
        TmmParams {
            n: 1024,
            bsize: 16,
            threads: 8,
            kk_window: 2,
            seed: 42,
        }
    }

    /// Number of `ii` strips.
    pub fn nb(&self) -> usize {
        self.n / self.bsize
    }

    /// Effective `kk` window (capped at `nb`).
    pub fn window(&self) -> usize {
        self.kk_window.min(self.nb())
    }

    /// Validate divisibility and thread count.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.bsize == 0 || !self.n.is_multiple_of(self.bsize) {
            return Err(format!(
                "n={} must be a multiple of bsize={}",
                self.n, self.bsize
            ));
        }
        if self.threads == 0 {
            return Err("threads must be >= 1".into());
        }
        if self.kk_window == 0 {
            return Err("kk_window must be >= 1".into());
        }
        Ok(())
    }
}

/// A configured tmm workload on a machine: inputs, output, scheme state.
#[derive(Debug, Clone)]
pub struct Tmm {
    /// Parameters.
    pub params: TmmParams,
    /// The active scheme.
    pub scheme: Scheme,
    /// Input matrix `a` (read-only during the run).
    pub a: PMatrix,
    /// Input matrix `b` (read-only during the run).
    pub b: PMatrix,
    /// Output matrix `c` (initialized to zero).
    pub c: PMatrix,
    /// Scheme support structures.
    pub handles: SchemeHandles,
}

impl Kernel for Tmm {
    type Params = TmmParams;

    fn params(scale: Scale) -> TmmParams {
        scale.pick([
            TmmParams::micro,
            TmmParams::test_small,
            TmmParams::bench_default,
            TmmParams::paper_default,
        ])
    }

    fn threads(params: &TmmParams) -> usize {
        params.threads
    }

    fn setup(machine: &mut Machine, params: TmmParams, scheme: Scheme) -> Result<Self, String> {
        params.validate()?;
        let alloc = |e: OutOfPersistentMemory| e.to_string();
        let n = params.n;
        let a = PMatrix::alloc(machine, n, n).map_err(alloc)?;
        let b = PMatrix::alloc(machine, n, n).map_err(alloc)?;
        let c = PMatrix::alloc(machine, n, n).map_err(alloc)?;
        a.fill(machine, &random_values(params.seed, n * n));
        b.fill(machine, &random_values(params.seed ^ 0x5eed, n * n));
        // c starts at zero (freshly poked so the durable image is clean).
        c.fill(machine, &vec![0.0; n * n]);
        let nb = params.nb();
        let handles = SchemeHandles::alloc(
            machine,
            scheme,
            nb * nb,
            params.threads,
            params.bsize * n + 8,
        )
        .map_err(alloc)?;
        Ok(Tmm {
            params,
            scheme,
            a,
            b,
            c,
            handles,
        })
    }

    fn handles(&self) -> &SchemeHandles {
        &self.handles
    }

    /// `kk`-major over each thread's owned strips, one region per
    /// `(kk, ii)` (Figure 8's structure); no barriers.
    fn schedule(&self) -> Vec<Vec<Step>> {
        self.ownership()
            .iter()
            .map(|owned| self.sequence(owned).into_iter().map(Step::Region).collect())
            .collect()
    }

    /// Collision-free key of region `(kb, ib)`.
    fn key(&self, (kb, ib): Region) -> usize {
        kb * self.params.nb() + ib
    }

    /// Accumulate the `kk` strip partial product into `c`'s `ii` strip.
    fn body<S: StoreSink>(&self, ctx: &mut CoreCtx<'_>, (kb, ib): Region, sink: &mut S) {
        let (n, bsize) = (self.params.n, self.params.bsize);
        let kk = kb * bsize;
        let ii = ib * bsize;
        for jj in (0..n).step_by(bsize) {
            for i in ii..ii + bsize {
                for j in jj..jj + bsize {
                    let init = self.c.load(ctx, i, j);
                    let sum = self.a.fma_row_col(
                        ctx,
                        i,
                        kk,
                        &self.b,
                        j,
                        bsize,
                        MUL_ADD_OPS + IDX_OPS,
                        1.0,
                        init,
                    );
                    sink.store(ctx, self.c.array(), self.c.idx(i, j), sum);
                    ctx.compute(IDX_OPS);
                }
            }
        }
    }

    fn tracked_ranges(&self) -> Vec<TrackedRange> {
        let mut out = vec![
            TrackedRange::of("tmm.c", self.c.array(), RangeRole::Protected),
            TrackedRange::of("tmm.a", self.a.array(), RangeRole::Scratch),
            TrackedRange::of("tmm.b", self.b.array(), RangeRole::Scratch),
        ];
        out.extend(self.handles.ranges());
        out
    }

    fn verify(&self, machine: &Machine) -> bool {
        crate::common::values_match(&self.c.peek_all(machine), &Self::golden(&self.params))
    }

    /// Every data-span line of `c`, which is also the flip target set:
    /// every checksum of a strip covers the whole strip, so a flip
    /// anywhere in its data fails every scan level and forces a
    /// zero-and-replay rebuild, and strips with no committed checksum are
    /// rebuilt (re-zeroed) unconditionally.
    fn repairable_lines(&self) -> Vec<LineAddr> {
        self.c.data_lines(0..self.params.n)
    }

    fn recover(&self, rec: &mut Recovery<'_>) {
        match self.scheme {
            Scheme::Eager => self.recover_eager(rec),
            Scheme::Wal => self.recover_wal(rec),
            _ => self.recover_lazy(rec),
        }
    }
}

crate::kernel::inherent_kernel_api!(Tmm);

impl Tmm {
    /// The strip indices owned by each thread (round-robin over `ii`
    /// strips, like the paper's static parallelization).
    pub fn ownership(&self) -> Vec<Vec<usize>> {
        round_robin_blocks(self.params.nb(), self.params.threads)
    }

    /// One thread's regions: `kk`-major over its `owned` strips.
    fn sequence(&self, owned: &[usize]) -> Vec<Region> {
        (0..self.params.window())
            .flat_map(|kb| owned.iter().map(move |&ib| (kb, ib)))
            .collect()
    }

    /// `(i, j)` store order of region `(·, ib)`: the `jj → i → j` loop
    /// nest of Figure 8. Checksum folds follow exactly this order.
    pub fn region_elems(
        params: &TmmParams,
        ib: usize,
    ) -> impl Iterator<Item = (usize, usize)> + Clone {
        let (n, bsize) = (params.n, params.bsize);
        let ii = ib * bsize;
        (0..n).step_by(bsize).flat_map(move |jj| {
            (ii..ii + bsize).flat_map(move |i| (jj..jj + bsize).map(move |j| (i, j)))
        })
    }

    /// Host golden reference for the simulated window (same accumulation
    /// order as the simulated kernel).
    pub fn golden(params: &TmmParams) -> Vec<f64> {
        let n = params.n;
        let bsize = params.bsize;
        let a = random_values(params.seed, n * n);
        let b = random_values(params.seed ^ 0x5eed, n * n);
        let mut c = vec![0.0f64; n * n];
        for kb in 0..params.window() {
            let kk = kb * bsize;
            for ii in (0..n).step_by(bsize) {
                for jj in (0..n).step_by(bsize) {
                    for i in ii..ii + bsize {
                        for j in jj..jj + bsize {
                            let mut sum = c[i * n + j];
                            for k in kk..kk + bsize {
                                sum += a[i * n + k] * b[k * n + j];
                            }
                            c[i * n + j] = sum;
                        }
                    }
                }
            }
        }
        c
    }

    /// The slots of strip `ib`'s regions, in fold order.
    fn strip_slots(&self, ib: usize) -> impl Iterator<Item = Slot<f64>> + Clone + '_ {
        Self::region_elems(&self.params, ib).map(|(i, j)| (self.c.array(), self.c.idx(i, j)))
    }

    /// Whether any line of strip `ib`'s data spans is poisoned.
    fn strip_poisoned(&self, rec: &Recovery<'_>, ib: usize) -> bool {
        let bsize = self.params.bsize;
        self.c.rows_poisoned(&rec.poisoned, ib * bsize, bsize)
    }

    /// Durably rebuild strip `ib` from its initial zeros through its first
    /// `kbs_done` `kk` contributions (EP/WAL recovery). EP and WAL never
    /// read the checksum table, so the slot of region `(0, ib)` holds the
    /// strip's rebuild journal.
    fn rebuild_strip(&self, rec: &mut Recovery<'_>, ib: usize, kbs_done: usize) {
        let bsize = self.params.bsize;
        let journal = self.key((0, ib));
        rec.arm_rebuild(journal);
        self.c.zero_rows(&mut rec.ctx, ib * bsize, bsize);
        // Every `kb` contribution rewrites the same strip rows; durability
        // is only needed before the journal clears below, since a crash
        // mid-replay re-enters via the armed journal.
        self.rebuild(rec, (0..kbs_done).map(|kb| (kb, ib)));
        rec.clear_rebuild(journal);
    }

    /// `kk` contributions of the strip at position `pos` in its owner's
    /// strip list that committed before the crash, given the owner's
    /// resume position `done` in its `kk`-major schedule.
    fn strip_kbs_done(&self, done: usize, pos: usize, owned_len: usize) -> usize {
        let window = self.params.window();
        if done > pos {
            (done - pos).div_ceil(owned_len).min(window)
        } else {
            0
        }
    }

    /// The position in an owner's schedule just past the region its
    /// durable `marker` names (`0`: nothing committed).
    fn resume_position(&self, owned: &[usize], marker: u64) -> usize {
        if marker == 0 {
            return 0;
        }
        let key = (marker - 1) as usize;
        let (kb, ib) = (key / self.params.nb(), key % self.params.nb());
        let pos = owned.iter().position(|&b| b == ib).expect("owned");
        kb * owned.len() + pos + 1
    }

    /// Figure 9's recovery with the per-strip optimization: for each `ii`
    /// strip, scan `kk` checksums newest-first; the first match is the
    /// strip's durable state, and only later `kk`s are recomputed. A
    /// poisoned strip that rung 1 cannot repair is quarantined and rebuilt
    /// from its initial zeros; the replay stores fresh checksums, so a
    /// crash mid-rebuild re-enters through the normal scan even after the
    /// rebuild's own writes scrub the poison.
    fn recover_lazy(&self, rec: &mut Recovery<'_>) {
        let (bsize, window) = (self.params.bsize, self.params.window());
        let steps: Vec<usize> = (0..window).collect();
        for ib in 0..self.params.nb() {
            let poisoned = self.strip_poisoned(rec, ib);
            let slots = |_| self.strip_slots(ib);
            let resume =
                newest_first(self, rec, ib, &steps, poisoned, slots).unwrap_or_else(|| {
                    rec.stats.regions_quarantined += window as u64;
                    0
                });
            if resume == 0 {
                // No durable state: zero the strip (its initial value) and
                // persist the zeros so a crash during recovery re-enters
                // the same path.
                self.c.zero_rows(&mut rec.ctx, ib * bsize, bsize);
            }
            for kb in resume..window {
                self.recompute(rec, (kb, ib));
            }
        }
    }

    /// EagerRecompute recovery: each thread's durable marker names its
    /// last committed region. The (single) region it was executing may
    /// have leaked partial stores via natural evictions, so its strip is
    /// rebuilt from scratch up to the preceding `kk`, then the remaining
    /// schedule re-runs eagerly.
    fn recover_eager(&self, rec: &mut Recovery<'_>) {
        let owners = self.ownership();
        // Each thread's resume position, from the durable markers.
        let completed: Vec<usize> = owners
            .iter()
            .enumerate()
            .map(|(t, owned)| self.resume_position(owned, rec.peek(self.handles.markers, t)))
            .collect();
        for (t, owned) in owners.iter().enumerate() {
            let seq = self.sequence(owned);
            let done = completed[t];
            rec.stats.regions_checked += seq.len() as u64;
            // Strips whose durable bytes cannot be trusted: the in-flight
            // region's strip may hold partially-evicted stores, and
            // poisoned or journal-armed strips were hit by (or were
            // mid-repair from) a media fault — markers vouch for
            // committed progress, not for the medium.
            let mut rebuild: Vec<usize> = Vec::new();
            if done < seq.len() {
                rec.stats.regions_inconsistent += 1;
                rebuild.push(seq[done].1);
            }
            for &ib in owned {
                if (self.strip_poisoned(rec, ib) || rec.rebuild_armed(self.key((0, ib))))
                    && !rebuild.contains(&ib)
                {
                    rec.stats.regions_quarantined += 1;
                    rebuild.push(ib);
                }
            }
            for &ib in &rebuild {
                let pos = owned.iter().position(|&b| b == ib).expect("owned");
                self.rebuild_strip(rec, ib, self.strip_kbs_done(done, pos, owned.len()));
            }
            // Re-run the rest of the schedule eagerly, advancing markers.
            for &region in seq.iter().skip(done) {
                self.rerun(rec, t, region);
            }
        }
    }

    /// WAL recovery: roll back any interrupted transaction per thread,
    /// then re-run the remaining schedule transactionally.
    fn recover_wal(&self, rec: &mut Recovery<'_>) {
        for (t, owned) in self.ownership().iter().enumerate() {
            rec.wal_recover(t..t + 1);
            // The marker must be read after the rollback: the commit logs
            // the marker's undo pair, so undoing an interrupted
            // transaction rewinds the marker with it.
            let marker = self.handles.thread(t).marker(&mut rec.ctx);
            let seq = self.sequence(owned);
            let done = self.resume_position(owned, marker);
            rec.stats.regions_checked += seq.len() as u64;
            // The undo log restores pre-transaction bytes, but markers and
            // logs vouch for committed progress, not for the medium:
            // strips hit by (or mid-repair from) a media fault are rebuilt
            // from their initial zeros.
            for (pos, &ib) in owned.iter().enumerate() {
                if self.strip_poisoned(rec, ib) || rec.rebuild_armed(self.key((0, ib))) {
                    rec.stats.regions_quarantined += 1;
                    self.rebuild_strip(rec, ib, self.strip_kbs_done(done, pos, owned.len()));
                }
            }
            for &region in &seq[done..] {
                self.rerun(rec, t, region);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run;
    use lp_core::recovery::RecoveryStats;
    use lp_sim::config::MachineConfig;
    use lp_sim::machine::Outcome;
    use lp_sim::prelude::CrashTrigger;

    fn cfg() -> MachineConfig {
        MachineConfig::default().with_nvmm_bytes(8 << 20)
    }

    #[test]
    fn params_validate() {
        assert!(TmmParams::test_small().validate().is_ok());
        let mut p = TmmParams::test_small();
        p.bsize = 7;
        assert!(p.validate().is_err());
        p = TmmParams::test_small();
        p.threads = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn all_schemes_compute_the_same_product() {
        let params = TmmParams::test_small();
        for scheme in [
            Scheme::Base,
            Scheme::lazy_default(),
            Scheme::lazy_parity_default(),
            Scheme::Eager,
            Scheme::Wal,
        ] {
            let run = run::<Tmm>(&cfg(), params, scheme);
            assert_eq!(run.outcome, Outcome::Completed, "{scheme}");
            assert!(run.verified, "{scheme} produced a wrong product");
        }
    }

    /// The headline rung-1 guarantee: on a fully committed image a single
    /// poisoned line is reconstructed from parity alone — no region is
    /// recomputed, nothing is quarantined, nothing escalates.
    #[test]
    fn parity_repairs_single_poison_without_recompute() {
        let params = TmmParams::test_small();
        let mut machine = Machine::new(cfg().with_cores(params.threads));
        let k = Tmm::setup(&mut machine, params, Scheme::lazy_parity_default()).unwrap();
        assert_eq!(machine.run(k.plans()), Outcome::Completed);
        machine.drain_caches();
        machine.mem_mut().poison_line(k.repairable_lines()[0]);
        let rstats = k.recover(&mut machine);
        machine.drain_caches();
        assert!(k.verify(&machine), "repaired image must verify");
        assert_eq!(rstats.repaired_lines, 1);
        assert_eq!(rstats.recomputed_regions, 0);
        assert_eq!(rstats.regions_quarantined, 0);
        assert_eq!(rstats.repair_failures, 0);
        assert_eq!(rstats.escalations, 0);
    }

    #[test]
    fn scheme_cost_ordering_matches_figure_10() {
        let params = TmmParams::test_small();
        let base = run::<Tmm>(&cfg(), params, Scheme::Base);
        let lp = run::<Tmm>(&cfg(), params, Scheme::lazy_default());
        let ep = run::<Tmm>(&cfg(), params, Scheme::Eager);
        let wal = run::<Tmm>(&cfg(), params, Scheme::Wal);
        // Execution time: base <= LP < EP, WAL (the EP/WAL order at this
        // tiny scale is noise; Figure 10's paper-scale run separates them).
        assert!(lp.cycles() >= base.cycles());
        assert!(
            ep.cycles() > lp.cycles(),
            "EP {} vs LP {}",
            ep.cycles(),
            lp.cycles()
        );
        assert!(
            wal.cycles() > lp.cycles(),
            "WAL {} vs LP {}",
            wal.cycles(),
            lp.cycles()
        );
        // Writes: LP close to base, EP and WAL amplified.
        assert!(ep.writes() > lp.writes());
        assert!(wal.writes() > ep.writes());
        // LP overhead over base should be small (figure reports ~0.2%;
        // allow slack for the tiny test size).
        let lp_overhead = lp.cycles() as f64 / base.cycles() as f64;
        assert!(lp_overhead < 1.25, "LP overhead {lp_overhead}");
        let ep_overhead = ep.cycles() as f64 / base.cycles() as f64;
        assert!(ep_overhead > lp_overhead);
    }

    #[test]
    fn lp_never_flushes_or_fences() {
        let run = run::<Tmm>(&cfg(), TmmParams::test_small(), Scheme::lazy_default());
        let t = run.stats.core_totals();
        assert_eq!(t.flushes, 0);
        assert_eq!(t.fences, 0);
        assert_eq!(run.stats.mem.nvmm_writes_flush, 0);
    }

    #[test]
    fn region_elems_order_is_jj_i_j() {
        let params = TmmParams {
            n: 4,
            bsize: 2,
            threads: 1,
            kk_window: 1,
            seed: 0,
        };
        let elems: Vec<_> = Tmm::region_elems(&params, 1).collect();
        assert_eq!(
            elems,
            vec![
                (2, 0),
                (2, 1),
                (3, 0),
                (3, 1),
                (2, 2),
                (2, 3),
                (3, 2),
                (3, 3)
            ]
        );
    }

    #[test]
    fn keys_are_collision_free() {
        let mut m = Machine::new(cfg().with_cores(2));
        let tmm = Tmm::setup(&mut m, TmmParams::test_small(), Scheme::lazy_default()).unwrap();
        let mut seen = std::collections::HashSet::new();
        for kb in 0..tmm.params.window() {
            for ib in 0..tmm.params.nb() {
                assert!(seen.insert(Kernel::key(&tmm, (kb, ib))));
            }
        }
        assert!(seen.iter().all(|&k| k < tmm.handles.table.len()));
    }

    fn crash_and_recover(scheme: Scheme, trigger: CrashTrigger) -> (bool, RecoveryStats) {
        let params = TmmParams::test_small();
        let mut machine = Machine::new(cfg().with_cores(params.threads));
        let tmm = Tmm::setup(&mut machine, params, scheme).unwrap();
        machine.set_crash_trigger(trigger);
        let outcome = machine.run(tmm.plans());
        assert_eq!(outcome, Outcome::Crashed, "trigger should have fired");
        machine.clear_crash_trigger();
        machine.take_stats();
        let rstats = tmm.recover(&mut machine);
        machine.drain_caches();
        (tmm.verify(&machine), rstats)
    }

    #[test]
    fn lazy_recovery_restores_correct_output() {
        for ops in [50u64, 500, 5_000, 20_000] {
            let (ok, rstats) =
                crash_and_recover(Scheme::lazy_default(), CrashTrigger::AfterMemOps(ops));
            assert!(ok, "LP recovery failed for crash at {ops} ops");
            assert!(rstats.regions_checked > 0);
        }
    }

    #[test]
    fn lazy_recovery_after_write_count_crash() {
        // Small caches so natural evictions (and hence NVMM writes) happen
        // early enough for the trigger to fire mid-run.
        let params = TmmParams::test_small();
        for writes in [1u64, 8, 64] {
            let mut machine = Machine::new(
                cfg()
                    .with_cores(params.threads)
                    .with_l1_bytes(2 * 1024)
                    .with_l2_bytes(8 * 1024),
            );
            let tmm = Tmm::setup(&mut machine, params, Scheme::lazy_default()).unwrap();
            machine.set_crash_trigger(CrashTrigger::AfterNvmmWrites(writes));
            let outcome = machine.run(tmm.plans());
            assert_eq!(outcome, Outcome::Crashed, "at {writes} writes");
            machine.clear_crash_trigger();
            let _ = tmm.recover(&mut machine);
            machine.drain_caches();
            assert!(
                tmm.verify(&machine),
                "LP recovery failed for crash at {writes} writes"
            );
        }
    }

    #[test]
    fn eager_recovery_restores_correct_output() {
        for ops in [100u64, 2_000, 30_000] {
            let (ok, rstats) = crash_and_recover(Scheme::Eager, CrashTrigger::AfterMemOps(ops));
            assert!(ok, "EP recovery failed for crash at {ops} ops");
            assert!(rstats.recomputed_regions > 0);
        }
    }

    #[test]
    fn wal_recovery_restores_correct_output() {
        for ops in [100u64, 5_000, 20_000] {
            let (ok, _) = crash_and_recover(Scheme::Wal, CrashTrigger::AfterMemOps(ops));
            assert!(ok, "WAL recovery failed for crash at {ops} ops");
        }
    }

    #[test]
    fn crash_during_recovery_then_rerecover() {
        let params = TmmParams::test_small();
        let mut machine = Machine::new(cfg().with_cores(params.threads));
        let tmm = Tmm::setup(&mut machine, params, Scheme::lazy_default()).unwrap();
        machine.set_crash_trigger(CrashTrigger::AfterMemOps(3_000));
        assert_eq!(machine.run(tmm.plans()), Outcome::Crashed);
        machine.clear_crash_trigger();
        // First recovery attempt is itself cut short.
        let ops_so_far = machine.mem().mem_ops();
        machine
            .mem_mut()
            .set_crash_trigger(Some(CrashTrigger::AfterMemOps(ops_so_far + 2_000)));
        let _ = tmm.recover(&mut machine);
        assert!(machine.mem().crashed(), "recovery crash should have fired");
        machine.mem_mut().acknowledge_crash();
        // Second recovery completes the job.
        let _ = tmm.recover(&mut machine);
        machine.drain_caches();
        assert!(tmm.verify(&machine), "re-recovery must converge");
    }

    #[test]
    fn recovery_on_clean_run_is_cheap_noop() {
        let params = TmmParams::test_small();
        let mut machine = Machine::new(cfg().with_cores(params.threads));
        let tmm = Tmm::setup(&mut machine, params, Scheme::lazy_default()).unwrap();
        assert_eq!(machine.run(tmm.plans()), Outcome::Completed);
        machine.drain_caches(); // everything durable
        let rstats = tmm.recover(&mut machine);
        assert_eq!(rstats.recomputed_regions, 0, "nothing to repair");
        assert!(tmm.verify(&machine));
    }
}
