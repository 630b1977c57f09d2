//! 2-dimensional convolution (`2D-conv` in the paper's Table V): a 3×3
//! stencil over an `n × n` image with a one-pixel halo.
//!
//! Each output row-block is an LP region. Regions are *idempotent* (Section
//! III-E: output depends only on the read-only input), so recovery is the
//! trivial case — mismatching blocks are simply recomputed, in any order.

use crate::common::{random_values, round_robin_blocks, PMatrix, IDX_OPS, MUL_ADD_OPS};
use crate::driver::Scale;
use crate::kernel::{newest_first, Kernel, Region, Step};
use lp_core::recovery::{Recovery, StoreSink};
use lp_core::scheme::{Scheme, SchemeHandles};
use lp_core::track::{RangeRole, TrackedRange};
use lp_sim::addr::LineAddr;
use lp_sim::core::CoreCtx;
use lp_sim::machine::Machine;

/// Problem and windowing parameters for one convolution run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Output image dimension (`n × n`); the input is padded to
    /// `(n+2) × (n+2)`. Must be a multiple of `bsize`.
    pub n: usize,
    /// Rows per region.
    pub bsize: usize,
    /// Worker threads.
    pub threads: usize,
    /// Number of row-blocks to simulate (the paper windows 2D-conv to ~4%
    /// of its runtime); capped at `n / bsize`.
    pub block_window: usize,
    /// Input seed.
    pub seed: u64,
}

impl Conv2dParams {
    /// Smallest meaningful parameters, sized for exhaustive crash-state
    /// model checking (one full replay per crash point).
    pub fn micro() -> Self {
        Conv2dParams {
            n: 16,
            bsize: 8,
            threads: 2,
            block_window: 1,
            seed: 7,
        }
    }

    /// Parameters sized for fast unit tests.
    pub fn test_small() -> Self {
        Conv2dParams {
            n: 32,
            bsize: 8,
            threads: 2,
            block_window: 4,
            seed: 7,
        }
    }

    /// Bench-scale parameters (256² image, 8 threads).
    pub fn bench_default() -> Self {
        Conv2dParams {
            n: 256,
            bsize: 16,
            threads: 8,
            block_window: 8,
            seed: 7,
        }
    }

    /// Paper-scale parameters: 1024² image, a ~4%-of-runtime window.
    pub fn paper_default() -> Self {
        Conv2dParams {
            n: 1024,
            bsize: 16,
            threads: 8,
            block_window: 16,
            seed: 7,
        }
    }

    /// Total row-blocks in the image.
    pub fn nblocks(&self) -> usize {
        self.n / self.bsize
    }

    /// Effective window (capped).
    pub fn window(&self) -> usize {
        self.block_window.min(self.nblocks())
    }

    /// Validate parameters.
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
        if self.threads == 0 || self.block_window == 0 {
            return Err("threads and block_window must be >= 1".into());
        }
        Ok(())
    }
}

/// The 3×3 stencil derived deterministically from a seed.
pub fn stencil(seed: u64) -> [f64; 9] {
    let v = random_values(seed ^ 0xc0ffee, 9);
    let mut w = [0.0; 9];
    w.copy_from_slice(&v);
    w
}

/// A configured convolution workload.
#[derive(Debug, Clone)]
pub struct Conv2d {
    /// Parameters.
    pub params: Conv2dParams,
    /// The active scheme.
    pub scheme: Scheme,
    /// Padded input image (read-only during the run).
    pub input: PMatrix,
    /// Output image.
    pub output: PMatrix,
    /// Scheme support structures.
    pub handles: SchemeHandles,
    weights: [f64; 9],
}

impl Kernel for Conv2d {
    type Params = Conv2dParams;

    fn params(scale: Scale) -> Conv2dParams {
        scale.pick([
            Conv2dParams::micro,
            Conv2dParams::test_small,
            Conv2dParams::bench_default,
            Conv2dParams::paper_default,
        ])
    }

    fn threads(params: &Conv2dParams) -> usize {
        params.threads
    }

    fn setup(machine: &mut Machine, params: Conv2dParams, scheme: Scheme) -> Result<Self, String> {
        params.validate()?;
        let n = params.n;
        let input = PMatrix::alloc(machine, n + 2, n + 2).map_err(|e| e.to_string())?;
        let output = PMatrix::alloc(machine, n, n).map_err(|e| e.to_string())?;
        input.fill(machine, &random_values(params.seed, (n + 2) * (n + 2)));
        output.fill(machine, &vec![0.0; n * n]);
        let handles = SchemeHandles::alloc(
            machine,
            scheme,
            params.nblocks(),
            params.threads,
            params.bsize * n + 8,
        )
        .map_err(|e| e.to_string())?;
        Ok(Conv2d {
            params,
            scheme,
            input,
            output,
            handles,
            weights: stencil(params.seed),
        })
    }

    fn handles(&self) -> &SchemeHandles {
        &self.handles
    }

    /// One region per owned block; blocks are independent, so no
    /// barriers.
    fn schedule(&self) -> Vec<Vec<Step>> {
        self.ownership()
            .into_iter()
            .map(|owned| owned.into_iter().map(|b| Step::Region((0, b))).collect())
            .collect()
    }

    /// Key of block `block`'s (only) region.
    fn key(&self, (_, block): Region) -> usize {
        block
    }

    /// Convolve rows `[block·bsize, (block+1)·bsize)`.
    fn body<S: StoreSink>(&self, ctx: &mut CoreCtx<'_>, (_, block): Region, sink: &mut S) {
        let (n, bsize) = (self.params.n, self.params.bsize);
        let w = self.weights;
        for i in block * bsize..(block + 1) * bsize {
            for j in 0..n {
                let mut sum = 0.0;
                for di in 0..3 {
                    for dj in 0..3 {
                        let v = self.input.load(ctx, i + di, j + dj);
                        sum += v * w[di * 3 + dj];
                        ctx.compute(MUL_ADD_OPS + IDX_OPS);
                    }
                }
                sink.store(ctx, self.output.array(), self.output.idx(i, j), sum);
                ctx.compute(IDX_OPS);
            }
        }
    }

    fn tracked_ranges(&self) -> Vec<TrackedRange> {
        let mut out = vec![
            TrackedRange::of("conv2d.out", self.output.array(), RangeRole::Protected),
            TrackedRange::of("conv2d.in", self.input.array(), RangeRole::Scratch),
        ];
        out.extend(self.handles.ranges());
        out
    }

    fn verify(&self, machine: &Machine) -> bool {
        crate::common::values_match(&self.output.peek_all(machine), &Self::golden(&self.params))
    }

    /// The data-span lines of the output rows inside the simulated window
    /// (only those are ever recomputed). Lazy recovery audits every window
    /// block, so a flip in any of them either fails its checksum or lands
    /// in a block that is recomputed anyway: the flip targets are the same
    /// set.
    fn repairable_lines(&self) -> Vec<LineAddr> {
        self.output
            .data_lines(0..self.params.window() * self.params.bsize)
    }

    fn recover(&self, rec: &mut Recovery<'_>) {
        match self.scheme {
            Scheme::Eager | Scheme::Wal => self.recover_marker_based(rec),
            _ => self.recover_lazy(rec),
        }
    }
}

crate::kernel::inherent_kernel_api!(Conv2d);

impl Conv2d {
    /// Round-robin block ownership.
    pub fn ownership(&self) -> Vec<Vec<usize>> {
        round_robin_blocks(self.params.window(), self.params.threads)
    }

    /// Host golden for the simulated window.
    pub fn golden(params: &Conv2dParams) -> Vec<f64> {
        let n = params.n;
        let input = random_values(params.seed, (n + 2) * (n + 2));
        let w = stencil(params.seed);
        let mut out = vec![0.0f64; n * n];
        for i in 0..params.window() * params.bsize {
            for j in 0..n {
                let mut sum = 0.0;
                for di in 0..3 {
                    for dj in 0..3 {
                        sum += input[(i + di) * (n + 2) + (j + dj)] * w[di * 3 + dj];
                    }
                }
                out[i * n + j] = sum;
            }
        }
        out
    }

    /// Whether any line of `block`'s output rows is poisoned.
    fn block_poisoned(&self, rec: &Recovery<'_>, block: usize) -> bool {
        let bsize = self.params.bsize;
        self.output
            .rows_poisoned(&rec.poisoned, block * bsize, bsize)
    }

    /// Idempotent regions: recompute what mismatches. A poisoned block is
    /// never trusted — poison reads as a fixed pattern that a weak code
    /// can collide with — unless rung 1 reconstructs its lost line; a
    /// quarantined block still counts as checked.
    fn recover_lazy(&self, rec: &mut Recovery<'_>) {
        let bsize = self.params.bsize;
        for block in 0..self.params.window() {
            let poisoned = self.block_poisoned(rec, block);
            let slots = |_| {
                self.output
                    .slots(block * bsize..(block + 1) * bsize, 0..self.params.n)
            };
            match newest_first(self, rec, block, &[0], poisoned, slots) {
                None => {
                    rec.stats.regions_checked += 1;
                    rec.stats.regions_quarantined += 1;
                    self.recompute(rec, (0, block));
                }
                Some(0) => self.recompute(rec, (0, block)),
                Some(_) => {}
            }
        }
    }

    /// EP/WAL recovery: undo any open transaction, then re-run every block
    /// past each thread's marker (idempotent, so partial work is harmless).
    fn recover_marker_based(&self, rec: &mut Recovery<'_>) {
        for (t, owned) in self.ownership().iter().enumerate() {
            let tp = self.handles.thread(t);
            tp.wal_recover(&mut rec.ctx);
            // Read the marker only after the rollback: a WAL commit logs
            // the marker's undo pair, so undoing an interrupted
            // transaction rewinds the marker with it (no-op under EP).
            let marker = tp.marker(&mut rec.ctx);
            let completed = if marker == 0 {
                0
            } else {
                owned
                    .iter()
                    .position(|&b| b == (marker - 1) as usize)
                    .map_or(0, |p| p + 1)
            };
            rec.stats.regions_checked += owned.len() as u64;
            // Committed blocks hit by a media fault are recomputed too:
            // the marker vouches for progress, not for the medium. Blocks
            // are idempotent, so a plain eager re-run (no marker motion)
            // is safe to interrupt and repeat at any crash point.
            for &block in &owned[..completed] {
                if self.block_poisoned(rec, block) {
                    rec.stats.regions_quarantined += 1;
                    self.rebuild(rec, [(0, block)]);
                }
            }
            for &block in &owned[completed..] {
                self.rerun(rec, t, (0, block));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run;
    use lp_sim::config::MachineConfig;
    use lp_sim::machine::Outcome;
    use lp_sim::prelude::CrashTrigger;

    fn cfg() -> MachineConfig {
        MachineConfig::default().with_nvmm_bytes(8 << 20)
    }

    #[test]
    fn all_schemes_agree_with_golden() {
        for scheme in [
            Scheme::Base,
            Scheme::lazy_default(),
            Scheme::lazy_parity_default(),
            Scheme::Eager,
            Scheme::Wal,
        ] {
            let r = run::<Conv2d>(&cfg(), Conv2dParams::test_small(), scheme);
            assert_eq!(r.outcome, Outcome::Completed, "{scheme}");
            assert!(r.verified, "{scheme}");
        }
    }

    /// The headline rung-1 guarantee: on a fully committed image a single
    /// poisoned line is reconstructed from parity alone — no region is
    /// recomputed, nothing is quarantined, nothing escalates.
    #[test]
    fn parity_repairs_single_poison_without_recompute() {
        let params = Conv2dParams::test_small();
        let mut machine = Machine::new(cfg().with_cores(params.threads));
        let k = Conv2d::setup(&mut machine, params, Scheme::lazy_parity_default()).unwrap();
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
    fn lp_overhead_is_small() {
        let base = run::<Conv2d>(&cfg(), Conv2dParams::test_small(), Scheme::Base);
        let lp = run::<Conv2d>(&cfg(), Conv2dParams::test_small(), Scheme::lazy_default());
        let ep = run::<Conv2d>(&cfg(), Conv2dParams::test_small(), Scheme::Eager);
        assert!(lp.cycles() as f64 / (base.cycles() as f64) < 1.25);
        assert!(ep.cycles() > lp.cycles());
    }

    #[test]
    fn lazy_recovery_roundtrip() {
        for ops in [100u64, 3_000, 10_000] {
            let params = Conv2dParams::test_small();
            let mut machine = Machine::new(cfg().with_cores(params.threads));
            let conv = Conv2d::setup(&mut machine, params, Scheme::lazy_default()).unwrap();
            machine.set_crash_trigger(CrashTrigger::AfterMemOps(ops));
            assert_eq!(machine.run(conv.plans()), Outcome::Crashed);
            machine.clear_crash_trigger();
            let rstats = conv.recover(&mut machine);
            machine.drain_caches();
            assert!(conv.verify(&machine), "crash at {ops} ops");
            assert!(rstats.regions_checked > 0);
        }
    }

    #[test]
    fn eager_and_wal_recovery_roundtrip() {
        for scheme in [Scheme::Eager, Scheme::Wal] {
            let params = Conv2dParams::test_small();
            let mut machine = Machine::new(cfg().with_cores(params.threads));
            let conv = Conv2d::setup(&mut machine, params, scheme).unwrap();
            machine.set_crash_trigger(CrashTrigger::AfterMemOps(4_000));
            assert_eq!(machine.run(conv.plans()), Outcome::Crashed, "{scheme}");
            machine.clear_crash_trigger();
            conv.recover(&mut machine);
            machine.drain_caches();
            assert!(conv.verify(&machine), "{scheme}");
        }
    }

    #[test]
    fn stencil_is_deterministic() {
        assert_eq!(stencil(7), stencil(7));
        assert_ne!(stencil(7), stencil(8));
    }

    #[test]
    fn windowing_limits_computed_rows() {
        let mut params = Conv2dParams::test_small();
        params.block_window = 1;
        let r = run::<Conv2d>(&cfg(), params, Scheme::Base);
        assert!(r.verified);
        // Golden for a 1-block window has zeros past the first block.
        let g = Conv2d::golden(&params);
        assert!(g[params.bsize * params.n..].iter().all(|&v| v == 0.0));
        assert!(g[..params.bsize * params.n].iter().any(|&v| v != 0.0));
    }
}
