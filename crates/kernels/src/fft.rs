//! Fast Fourier transform (`FFT` in the paper's Table V; the paper windows
//! it to ~5% of runtime — here, to a configurable number of butterfly
//! stages).
//!
//! Radix-2 decimation-in-time over complex data stored as separate
//! re/im arrays, computed *out-of-place per stage* between two ping-pong
//! buffer pairs so each stage's writes are disjoint from its reads:
//!
//! * stage 0 performs the bit-reversal permutation from the (read-only,
//!   durable) input into buffer 0;
//! * stage `s ≥ 1` computes every output element independently from two
//!   source elements of buffer `(s−1) mod 2` into buffer `s mod 2`
//!   (an element's butterfly partner is found by position within its
//!   group, so no region ever writes outside its own index range).
//!
//! Regions are contiguous index chunks per stage; a barrier separates
//! stages (butterflies cross chunk boundaries).
//!
//! Recovery: a chunk of stage `s` can only be recomputed if stage `s−1`'s
//! buffer survived — which ping-pong reuse may have destroyed. The driver
//! therefore finds the *newest fully consistent stage* and replays from
//! there; if none survived it replays everything from the preserved input
//! (always possible). This is the honest consequence of in-place buffer
//! reuse that Section III-E's associativity discussion anticipates.

use crate::common::{random_values, round_robin_blocks, IDX_OPS, MUL_ADD_OPS};
use crate::driver::Scale;
use crate::kernel::{phased, Kernel, Region, Step};
use lp_core::parity::{RepairVerdict, Slot};
use lp_core::recovery::{range_poisoned, recompute_checksum, Recovery, StoreSink};
use lp_core::scheme::{Scheme, SchemeHandles};
use lp_core::track::{RangeRole, TrackedRange};
use lp_sim::addr::LineAddr;
use lp_sim::core::CoreCtx;
use lp_sim::machine::Machine;
use lp_sim::mem::PArray;

/// Modelled ALU ops for one twiddle-factor evaluation (a libm sin/cos
/// pair plus the angle arithmetic).
const TWIDDLE_OPS: u64 = 40;

/// Problem and windowing parameters for one FFT run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FftParams {
    /// Points; must be a power of two.
    pub n: usize,
    /// Chunks per stage (regions); must divide `n`.
    pub chunks: usize,
    /// Worker threads.
    pub threads: usize,
    /// Stages to simulate, *including* the bit-reversal stage 0; capped at
    /// `log2(n) + 1`.
    pub stage_window: usize,
    /// Input seed.
    pub seed: u64,
}

impl FftParams {
    /// Smallest meaningful parameters, sized for exhaustive crash-state
    /// model checking (one full replay per crash point).
    pub fn micro() -> Self {
        FftParams {
            n: 64,
            chunks: 2,
            threads: 2,
            stage_window: 2,
            seed: 31,
        }
    }

    /// Parameters sized for fast unit tests.
    pub fn test_small() -> Self {
        FftParams {
            n: 256,
            chunks: 4,
            threads: 2,
            stage_window: 4,
            seed: 31,
        }
    }

    /// Bench-scale parameters (16Ki points, ~1/3 of the stages).
    pub fn bench_default() -> Self {
        FftParams {
            n: 16 * 1024,
            chunks: 16,
            threads: 8,
            stage_window: 5,
            seed: 31,
        }
    }

    /// Paper-scale parameters: the paper transforms a 100k-node vector
    /// and simulates ~5% of the run; 128Ki points with a 5-stage window
    /// is the nearest power-of-two equivalent.
    pub fn paper_default() -> Self {
        FftParams {
            n: 128 * 1024,
            chunks: 16,
            threads: 8,
            stage_window: 5,
            seed: 31,
        }
    }

    /// log2(n).
    pub fn log2n(&self) -> usize {
        self.n.trailing_zeros() as usize
    }

    /// Effective stage count (capped at the full transform).
    pub fn window(&self) -> usize {
        self.stage_window.min(self.log2n() + 1)
    }

    /// Elements per chunk.
    pub fn chunk_len(&self) -> usize {
        self.n / self.chunks
    }

    /// Validate parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.n.is_power_of_two() || self.n < 4 {
            return Err(format!("n={} must be a power of two >= 4", self.n));
        }
        if self.chunks == 0 || !self.n.is_multiple_of(self.chunks) {
            return Err(format!("chunks={} must divide n={}", self.chunks, self.n));
        }
        if self.threads == 0 || self.stage_window == 0 {
            return Err("threads and stage_window must be >= 1".into());
        }
        Ok(())
    }
}

/// One complex buffer pair in persistent memory.
#[derive(Debug, Clone, Copy)]
struct CBuf {
    re: PArray<f64>,
    im: PArray<f64>,
}

/// A configured FFT workload.
#[derive(Debug, Clone)]
pub struct Fft {
    /// Parameters.
    pub params: FftParams,
    /// The active scheme.
    pub scheme: Scheme,
    input: CBuf,
    bufs: [CBuf; 2],
    /// Scheme support structures.
    pub handles: SchemeHandles,
}

/// Bit-reverse `i` within `bits` bits.
///
/// # Examples
///
/// ```
/// assert_eq!(lp_kernels::fft::bit_reverse(0b0001, 4), 0b1000);
/// ```
pub fn bit_reverse(i: usize, bits: usize) -> usize {
    let mut out = 0usize;
    for b in 0..bits {
        if i & (1 << b) != 0 {
            out |= 1 << (bits - 1 - b);
        }
    }
    out
}

impl Kernel for Fft {
    type Params = FftParams;

    fn params(scale: Scale) -> FftParams {
        scale.pick([
            FftParams::micro,
            FftParams::test_small,
            FftParams::bench_default,
            FftParams::paper_default,
        ])
    }

    fn threads(params: &FftParams) -> usize {
        params.threads
    }

    fn setup(machine: &mut Machine, params: FftParams, scheme: Scheme) -> Result<Self, String> {
        params.validate()?;
        let n = params.n;
        let alloc_buf = |machine: &mut Machine| -> Result<CBuf, String> {
            Ok(CBuf {
                re: machine.alloc::<f64>(n).map_err(|e| e.to_string())?,
                im: machine.alloc::<f64>(n).map_err(|e| e.to_string())?,
            })
        };
        let input = alloc_buf(machine)?;
        let bufs = [alloc_buf(machine)?, alloc_buf(machine)?];
        machine.poke_slice(input.re, 0, &random_values(params.seed, n));
        machine.poke_slice(input.im, 0, &random_values(params.seed ^ 0xf457, n));
        for b in &bufs {
            machine.poke_slice(b.re, 0, &vec![0.0; n]);
            machine.poke_slice(b.im, 0, &vec![0.0; n]);
        }
        let handles = SchemeHandles::alloc(
            machine,
            scheme,
            params.window() * params.chunks,
            params.threads,
            2 * params.chunk_len() + 8,
        )
        .map_err(|e| e.to_string())?;
        Ok(Fft {
            params,
            scheme,
            input,
            bufs,
            handles,
        })
    }

    fn handles(&self) -> &SchemeHandles {
        &self.handles
    }

    /// Per stage, each thread's chunks, then a barrier (butterflies cross
    /// chunk boundaries).
    fn schedule(&self) -> Vec<Vec<Step>> {
        phased(&self.ownership(), self.params.window(), |_| true)
    }

    /// Key of region `(stage, chunk)`.
    fn key(&self, (stage, chunk): Region) -> usize {
        stage * self.params.chunks + chunk
    }

    /// Compute the chunk's output elements for `stage`. Stores go
    /// re-then-im per element, ascending index.
    fn body<S: StoreSink>(&self, ctx: &mut CoreCtx<'_>, (stage, chunk): Region, sink: &mut S) {
        let len = self.params.chunk_len();
        let dst = self.dst(stage);
        let range = chunk * len..(chunk + 1) * len;
        if stage == 0 {
            let bits = self.params.log2n();
            for i in range {
                let src = bit_reverse(i, bits);
                let re = ctx.load(self.input.re, src);
                let im = ctx.load(self.input.im, src);
                ctx.compute(IDX_OPS * 4);
                sink.store(ctx, dst.re, i, re);
                sink.store(ctx, dst.im, i, im);
            }
            return;
        }
        let src = self.bufs[(stage - 1) % 2];
        let half = 1usize << (stage - 1); // butterflies span 2^stage points
        let group = half * 2;
        for i in range {
            let pos = i & (group - 1);
            let (s1, s2, sign, tpos) = if pos < half {
                (i, i + half, 1.0, pos)
            } else {
                (i - half, i, -1.0, pos - half)
            };
            let angle = -2.0 * std::f64::consts::PI * tpos as f64 / group as f64;
            let (wr, wi) = (angle.cos(), angle.sin());
            ctx.compute(TWIDDLE_OPS);
            let ar = ctx.load(src.re, s1);
            let ai = ctx.load(src.im, s1);
            let br = ctx.load(src.re, s2);
            let bi = ctx.load(src.im, s2);
            // a ± w·b
            let tr = wr * br - wi * bi;
            let ti = wr * bi + wi * br;
            ctx.compute(4 * MUL_ADD_OPS + IDX_OPS);
            sink.store(ctx, dst.re, i, ar + sign * tr);
            sink.store(ctx, dst.im, i, ai + sign * ti);
        }
    }

    /// The two ping-pong buffers are the protected data (regions write
    /// into whichever is the current stage's destination); the input
    /// buffer is read-only.
    fn tracked_ranges(&self) -> Vec<TrackedRange> {
        let mut out = vec![
            TrackedRange::of("fft.buf0.re", self.bufs[0].re, RangeRole::Protected),
            TrackedRange::of("fft.buf0.im", self.bufs[0].im, RangeRole::Protected),
            TrackedRange::of("fft.buf1.re", self.bufs[1].re, RangeRole::Protected),
            TrackedRange::of("fft.buf1.im", self.bufs[1].im, RangeRole::Protected),
            TrackedRange::of("fft.in.re", self.input.re, RangeRole::Scratch),
            TrackedRange::of("fft.in.im", self.input.im, RangeRole::Scratch),
        ];
        out.extend(self.handles.ranges());
        out
    }

    fn verify(&self, machine: &Machine) -> bool {
        let (gre, gim) = Self::golden(&self.params);
        let last = self.dst(self.params.window() - 1);
        crate::common::values_match(&machine.peek_vec(last.re), &gre)
            && crate::common::values_match(&machine.peek_vec(last.im), &gim)
    }

    /// The final stage's output buffer. Recovery quarantines every stage
    /// whose destination holds a poisoned line and replays it from the
    /// surviving stage (or from the preserved input), fully rewriting —
    /// and thereby scrubbing — both arrays. Every line is also either
    /// covered by the newest consistent stage's checksums (a flip is
    /// detected by the scan) or rewritten by the replay that follows: the
    /// flip targets are the same set.
    fn repairable_lines(&self) -> Vec<LineAddr> {
        let last = self.dst(self.params.window() - 1);
        let mut lines: Vec<LineAddr> = last.re.lines().chain(last.im.lines()).collect();
        lines.sort_unstable();
        lines.dedup();
        lines
    }

    /// Replay from the newest fully consistent stage (or from the
    /// preserved input); under EP/WAL, undo any open transaction and
    /// replay everything.
    fn recover(&self, rec: &mut Recovery<'_>) {
        let window = self.params.window();
        if matches!(self.scheme, Scheme::Eager | Scheme::Wal) {
            rec.wal_recover(0..self.params.threads);
            // The full replay below rewrites every buffer line (and
            // thereby scrubs any poison); just account for it.
            for stage in 0..window {
                if self.stage_poisoned(rec, stage) {
                    rec.stats.regions_quarantined += 1;
                }
            }
            return self.replay_from(rec, 0);
        }
        let mut resume = 0;
        for stage in (0..window).rev() {
            // A stage whose destination holds a poisoned line cannot be
            // trusted regardless of its checksums: quarantine it and keep
            // scanning, so the replay below fully rewrites it — unless
            // (`LazyParity`) rung 1 repairs every affected chunk, in which
            // case the stage rejoins the audit below on its own merits.
            if self.stage_poisoned(rec, stage) && !(rec.repairs() && self.poison_repair(rec, stage))
            {
                rec.stats.regions_quarantined += 1;
                continue;
            }
            rec.stats.regions_checked += self.params.chunks as u64;
            if self.stage_consistent(rec, stage) {
                resume = stage + 1;
                break;
            }
            rec.stats.regions_inconsistent += 1;
        }
        self.replay_from(rec, resume);
    }
}

crate::kernel::inherent_kernel_api!(Fft);

impl Fft {
    /// The buffer written by `stage`.
    fn dst(&self, stage: usize) -> CBuf {
        self.bufs[stage % 2]
    }

    /// Round-robin chunk ownership.
    pub fn ownership(&self) -> Vec<Vec<usize>> {
        round_robin_blocks(self.params.chunks, self.params.threads)
    }

    /// Host golden: replay the same stages natively. Returns
    /// `(re, im)` of the final stage's buffer.
    pub fn golden(params: &FftParams) -> (Vec<f64>, Vec<f64>) {
        let n = params.n;
        let in_re = random_values(params.seed, n);
        let in_im = random_values(params.seed ^ 0xf457, n);
        let mut bufs = [
            (vec![0.0f64; n], vec![0.0f64; n]),
            (vec![0.0f64; n], vec![0.0f64; n]),
        ];
        let bits = params.log2n();
        for i in 0..n {
            let src = bit_reverse(i, bits);
            bufs[0].0[i] = in_re[src];
            bufs[0].1[i] = in_im[src];
        }
        for stage in 1..params.window() {
            let (src_idx, dst_idx) = ((stage - 1) % 2, stage % 2);
            let half = 1usize << (stage - 1);
            let group = half * 2;
            for i in 0..n {
                let pos = i & (group - 1);
                let (s1, s2, sign, tpos) = if pos < half {
                    (i, i + half, 1.0, pos)
                } else {
                    (i - half, i, -1.0, pos - half)
                };
                let angle = -2.0 * std::f64::consts::PI * tpos as f64 / group as f64;
                let (wr, wi) = (angle.cos(), angle.sin());
                let (ar, ai) = (bufs[src_idx].0[s1], bufs[src_idx].1[s1]);
                let (br, bi) = (bufs[src_idx].0[s2], bufs[src_idx].1[s2]);
                let tr = wr * br - wi * bi;
                let ti = wr * bi + wi * br;
                bufs[dst_idx].0[i] = ar + sign * tr;
                bufs[dst_idx].1[i] = ai + sign * ti;
            }
        }
        let last = (params.window() - 1) % 2;
        (bufs[last].0.clone(), bufs[last].1.clone())
    }

    /// Whether `stage`'s destination buffer holds any poisoned line.
    fn stage_poisoned(&self, rec: &Recovery<'_>, stage: usize) -> bool {
        let dst = self.dst(stage);
        range_poisoned(&rec.poisoned, dst.re, 0, self.params.n)
            || range_poisoned(&rec.poisoned, dst.im, 0, self.params.n)
    }

    /// The elements of region `(stage, chunk)` in checksum fold order —
    /// interleaved across the destination's `re`/`im` pair, exactly as
    /// the forward stores walk them.
    fn slots(&self, stage: usize, chunk: usize) -> Vec<Slot<f64>> {
        let len = self.params.chunk_len();
        let dst = self.dst(stage);
        (chunk * len..(chunk + 1) * len)
            .flat_map(|i| [(dst.re, i), (dst.im, i)])
            .collect()
    }

    /// Whether region `(stage, chunk)` matches its stored checksum. The
    /// fold charges compute once per re/im pair, so it is not
    /// [`lp_core::recovery::region_consistent`]'s one charge per element.
    fn chunk_consistent(&self, rec: &mut Recovery<'_>, stage: usize, chunk: usize) -> bool {
        let (len, kind) = (self.params.chunk_len(), rec.kind());
        let dst = self.dst(stage);
        let mut values = Vec::with_capacity(2 * len);
        for i in chunk * len..(chunk + 1) * len {
            values.push(rec.ctx.load(dst.re, i));
            values.push(rec.ctx.load(dst.im, i));
            rec.ctx.compute(2 * kind.cost_ops());
        }
        let folded = recompute_checksum(kind, |ck| {
            for v in values {
                ck.update(v.to_bits());
            }
        });
        self.handles
            .table
            .matches(&mut rec.ctx, self.key((stage, chunk)), folded)
    }

    /// Whether every chunk of `stage` holds its committed data. Under
    /// `LazyParity` a chunk that fails its audit gets one rung-1 attempt,
    /// and every chunk is examined so every repairable flip in the stage
    /// is actually repaired; without parity the audit stops at the first
    /// mismatch.
    fn stage_consistent(&self, rec: &mut Recovery<'_>, stage: usize) -> bool {
        let chunks = 0..self.params.chunks;
        if !rec.repairs() {
            return chunks
                .into_iter()
                .all(|c| self.chunk_consistent(rec, stage, c));
        }
        let mut ok = true;
        for chunk in chunks {
            if !self.chunk_consistent(rec, stage, chunk)
                && !rec.mismatch_repair(self.key((stage, chunk)), &self.slots(stage, chunk))
            {
                ok = false;
            }
        }
        if !ok {
            rec.stats.escalations += 1;
        }
        ok
    }

    /// Rung 1 for a poisoned stage under `LazyParity`: attempt a parity
    /// reconstruction in every chunk (chunks not covering a poisoned line
    /// report `Clean` and cost nothing). Returns `true` only when every
    /// affected chunk repaired — the stage then rejoins the normal
    /// consistency audit; any failure records the escalation and the
    /// caller quarantines the stage for replay.
    fn poison_repair(&self, rec: &mut Recovery<'_>, stage: usize) -> bool {
        let mut all = true;
        for chunk in 0..self.params.chunks {
            let slots = self.slots(stage, chunk);
            if rec.poison_repair(self.key((stage, chunk)), &slots) == RepairVerdict::Failed {
                all = false;
            }
        }
        if !all {
            rec.stats.escalations += 1;
        }
        all
    }

    /// Eagerly re-execute stages `from..window`, republishing checksums
    /// (and, under `LazyParity`, the parity lines alongside them).
    fn replay_from(&self, rec: &mut Recovery<'_>, from: usize) {
        for stage in from..self.params.window() {
            for chunk in 0..self.params.chunks {
                self.recompute(rec, (stage, chunk));
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
    fn bit_reverse_is_involutive() {
        for bits in [4usize, 8] {
            for i in 0..(1 << bits) {
                assert_eq!(bit_reverse(bit_reverse(i, bits), bits), i);
            }
        }
        assert_eq!(bit_reverse(0b0001, 4), 0b1000);
        assert_eq!(bit_reverse(0b0110, 4), 0b0110);
    }

    #[test]
    fn full_transform_matches_naive_dft() {
        // With the window covering all stages, the golden equals a DFT.
        let params = FftParams {
            n: 64,
            chunks: 4,
            threads: 1,
            stage_window: 7, // log2(64)+1
            seed: 9,
        };
        let (re, im) = Fft::golden(&params);
        let n = params.n;
        let xre = random_values(params.seed, n);
        let xim = random_values(params.seed ^ 0xf457, n);
        for k in 0..n {
            let (mut sr, mut si) = (0.0f64, 0.0f64);
            for t in 0..n {
                let ang = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
                let (c, s) = (ang.cos(), ang.sin());
                sr += xre[t] * c - xim[t] * s;
                si += xre[t] * s + xim[t] * c;
            }
            assert!((sr - re[k]).abs() < 1e-6, "re[{k}]");
            assert!((si - im[k]).abs() < 1e-6, "im[{k}]");
        }
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
            let r = run::<Fft>(&cfg(), FftParams::test_small(), scheme);
            assert_eq!(r.outcome, Outcome::Completed, "{scheme}");
            assert!(r.verified, "{scheme}");
        }
    }

    /// The headline rung-1 guarantee: on a fully committed image a single
    /// poisoned line is reconstructed from parity alone — no region is
    /// recomputed, nothing is quarantined, nothing escalates.
    #[test]
    fn parity_repairs_single_poison_without_recompute() {
        let params = FftParams::test_small();
        let mut machine = Machine::new(cfg().with_cores(params.threads));
        let k = Fft::setup(&mut machine, params, Scheme::lazy_parity_default()).unwrap();
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
    fn lazy_recovery_roundtrip() {
        for ops in [100u64, 1_500, 4_000] {
            let params = FftParams::test_small();
            let mut machine = Machine::new(cfg().with_cores(params.threads));
            let fft = Fft::setup(&mut machine, params, Scheme::lazy_default()).unwrap();
            machine.set_crash_trigger(CrashTrigger::AfterMemOps(ops));
            assert_eq!(machine.run(fft.plans()), Outcome::Crashed, "at {ops}");
            machine.clear_crash_trigger();
            let rstats = fft.recover(&mut machine);
            machine.drain_caches();
            assert!(fft.verify(&machine), "crash at {ops} ops");
            assert!(rstats.recomputed_regions > 0);
        }
    }

    #[test]
    fn eager_and_wal_recovery_roundtrip() {
        for scheme in [Scheme::Eager, Scheme::Wal] {
            let params = FftParams::test_small();
            let mut machine = Machine::new(cfg().with_cores(params.threads));
            let fft = Fft::setup(&mut machine, params, scheme).unwrap();
            machine.set_crash_trigger(CrashTrigger::AfterMemOps(3_000));
            assert_eq!(machine.run(fft.plans()), Outcome::Crashed, "{scheme}");
            machine.clear_crash_trigger();
            fft.recover(&mut machine);
            machine.drain_caches();
            assert!(fft.verify(&machine), "{scheme}");
        }
    }

    #[test]
    fn window_caps_at_full_transform() {
        let mut params = FftParams::test_small();
        params.stage_window = 100;
        assert_eq!(params.window(), params.log2n() + 1);
        params.validate().unwrap();
    }
}
