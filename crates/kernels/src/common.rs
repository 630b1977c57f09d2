//! Shared infrastructure for the simulated kernels: persistent matrices,
//! the normal-execution store sink (the recovery sinks live in
//! [`lp_core::recovery`]), thread partitioning, deterministic input
//! generation, and run-result plumbing.

use lp_core::parity::Slot;
use lp_core::recovery::{range_poisoned, StoreSink};
use lp_core::scheme::{RegionSession, ThreadPersist};
use lp_sim::addr::LineAddr;
use lp_sim::core::CoreCtx;
use lp_sim::machine::{Machine, Outcome};
use lp_sim::mem::{OutOfPersistentMemory, PArray};
use lp_sim::rng::Rng64;
use lp_sim::stats::SimStats;
use std::ops::Range;

/// Modelled ALU ops for one fused multiply-add in a kernel inner loop.
pub const MUL_ADD_OPS: u64 = 2;
/// Modelled ALU ops for loop/index overhead per inner iteration.
pub const IDX_OPS: u64 = 1;

/// A dense row-major `f64` matrix in simulated persistent memory.
///
/// The handle is `Copy`; elements are accessed through the timed
/// [`CoreCtx`] API or the machine's untimed poke/peek.
///
/// Rows are padded by one cache line (8 doubles), the standard HPC fix
/// for power-of-two strides: without it, a 1024-wide `f64` matrix puts
/// every element of a tile *column* into the same L1 set and column walks
/// thrash the cache (the SPLASH-2 kernels the paper builds on pad for the
/// same reason).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PMatrix {
    data: PArray<f64>,
    rows: usize,
    cols: usize,
    stride: usize,
}

impl PMatrix {
    /// Elements of row padding appended to each row.
    pub const ROW_PAD: usize = 8;

    /// Allocate a `rows × cols` matrix (zero-filled, rows padded).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfPersistentMemory`] if the persistent heap is full.
    pub fn alloc(
        machine: &mut Machine,
        rows: usize,
        cols: usize,
    ) -> Result<Self, OutOfPersistentMemory> {
        let stride = cols + Self::ROW_PAD;
        let data = machine.alloc::<f64>(rows * stride)?;
        Ok(PMatrix {
            data,
            rows,
            cols,
            stride,
        })
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The backing array.
    pub fn array(&self) -> PArray<f64> {
        self.data
    }

    /// Flat index of `(i, j)` in the padded backing array.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.rows && j < self.cols, "({i},{j}) out of bounds");
        i * self.stride + j
    }

    /// Timed element load.
    #[inline]
    pub fn load(&self, ctx: &mut CoreCtx<'_>, i: usize, j: usize) -> f64 {
        ctx.load(self.data, self.idx(i, j))
    }

    /// Timed element store (plain — persistency-scheme stores go through a
    /// [`StoreSink`]).
    #[inline]
    pub fn store(&self, ctx: &mut CoreCtx<'_>, i: usize, j: usize, v: f64) {
        ctx.store(self.data, self.idx(i, j), v);
    }

    /// Untimed setup write.
    pub fn poke(&self, machine: &mut Machine, i: usize, j: usize, v: f64) {
        machine.poke(self.data, self.idx(i, j), v);
    }

    /// Untimed durable-image read.
    pub fn peek(&self, machine: &Machine, i: usize, j: usize) -> f64 {
        machine.peek(self.data, self.idx(i, j))
    }

    /// Untimed durable-image read of the whole matrix, row-major (padding
    /// excluded).
    pub fn peek_all(&self, machine: &Machine) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.rows * self.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.push(machine.peek(self.data, self.idx(i, j)));
            }
        }
        out
    }

    /// Fill from a row-major slice (untimed setup).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != rows * cols`.
    pub fn fill(&self, machine: &mut Machine, values: &[f64]) {
        assert_eq!(values.len(), self.rows * self.cols);
        for i in 0..self.rows {
            machine.poke_slice(
                self.data,
                i * self.stride,
                &values[i * self.cols..(i + 1) * self.cols],
            );
        }
    }

    /// Flush every line covering `count` whole rows starting at `row`
    /// (`clflushopt`, no fence).
    ///
    /// # Panics
    ///
    /// Panics if the rows are out of bounds.
    pub fn flush_rows(&self, ctx: &mut CoreCtx<'_>, row: usize, count: usize) {
        assert!(row + count <= self.rows, "rows out of bounds");
        for i in row..row + count {
            ctx.flush_range(self.data, i * self.stride, self.cols);
        }
    }

    /// Eagerly zero `count` whole rows starting at `row`: store every
    /// element, flush the rows' lines, fence.
    ///
    /// # Panics
    ///
    /// Panics if the rows are out of bounds.
    pub fn zero_rows(&self, ctx: &mut CoreCtx<'_>, row: usize, count: usize) {
        for i in row..row + count {
            for j in 0..self.cols {
                self.store(ctx, i, j, 0.0);
            }
        }
        self.flush_rows(ctx, row, count);
        ctx.sfence();
    }

    /// Whether a line of the data spans of `count` rows starting at `row`
    /// is in `poisoned` (sorted ascending).
    pub fn rows_poisoned(&self, poisoned: &[LineAddr], row: usize, count: usize) -> bool {
        (row..row + count).any(|i| range_poisoned(poisoned, self.data, self.idx(i, 0), self.cols))
    }

    /// The lines of `rows`' data spans, sorted and deduplicated. Row
    /// padding is excluded; a line straddling into padding counts, its
    /// pad bytes simply unchecked.
    pub fn data_lines(&self, rows: Range<usize>) -> Vec<LineAddr> {
        let mut lines: Vec<LineAddr> = rows
            .flat_map(|i| self.data.lines_of_range(self.idx(i, 0), self.cols))
            .collect();
        lines.sort_unstable();
        lines.dedup();
        lines
    }

    /// The elements `rows × cols`, row-major, as region slots.
    pub fn slots<'a, R>(
        &'a self,
        rows: R,
        cols: Range<usize>,
    ) -> impl Iterator<Item = Slot<f64>> + Clone + 'a
    where
        R: IntoIterator<Item = usize>,
        R::IntoIter: Clone + 'a,
    {
        rows.into_iter()
            .flat_map(move |i| cols.clone().map(move |j| (self.data, self.idx(i, j))))
    }
}

/// Normal-execution sink: routes stores through the active scheme.
#[derive(Debug)]
pub struct SchemeSink<'s> {
    /// The thread's persistency runtime.
    pub tp: ThreadPersist,
    /// The open region session.
    pub rs: &'s mut RegionSession,
}

impl StoreSink for SchemeSink<'_> {
    fn store(&mut self, ctx: &mut CoreCtx<'_>, arr: PArray<f64>, idx: usize, v: f64) {
        self.tp.store(ctx, self.rs, arr, idx, v);
    }
}

/// Assign block indices `0..nblocks` to `threads` workers round-robin.
///
/// # Examples
///
/// ```
/// use lp_kernels::common::round_robin_blocks;
/// let owners = round_robin_blocks(5, 2);
/// assert_eq!(owners, vec![vec![0, 2, 4], vec![1, 3]]);
/// ```
pub fn round_robin_blocks(nblocks: usize, threads: usize) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new(); threads.max(1)];
    for b in 0..nblocks {
        out[b % threads.max(1)].push(b);
    }
    out
}

/// Deterministic matrix data in `[-1, 1)`, seeded per array role.
pub fn random_values(seed: u64, len: usize) -> Vec<f64> {
    let mut rng = Rng64::new(seed);
    (0..len).map(|_| rng.range_f64(-1.0, 1.0)).collect()
}

/// Deterministic symmetric-positive-definite matrix for Cholesky:
/// `A = M·Mᵀ + n·I` with `M` random in `[-1, 1)`.
pub fn random_spd(seed: u64, n: usize) -> Vec<f64> {
    let m = random_values(seed, n * n);
    let mut a = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut s = 0.0;
            for k in 0..n {
                s += m[i * n + k] * m[j * n + k];
            }
            a[i * n + j] = s;
        }
        a[i * n + i] += n as f64;
    }
    a
}

/// Outcome of a simulated kernel run.
#[derive(Debug, Clone)]
pub struct KernelRun {
    /// Simulation statistics (cycles, writes, hazards, ...).
    pub stats: SimStats,
    /// Whether the run completed or crashed.
    pub outcome: Outcome,
    /// Whether the durable output matched the host golden reference
    /// (checked after draining caches; `false` is a bug for completed runs).
    pub verified: bool,
}

impl KernelRun {
    /// Execution time in cycles.
    pub fn cycles(&self) -> u64 {
        self.stats.exec_cycles()
    }

    /// Total NVMM writes.
    pub fn writes(&self) -> u64 {
        self.stats.nvmm_writes()
    }
}

/// Maximum |a-b| over two equal-length slices.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Whether two value sets agree to a tolerance appropriate for replayed
/// floating-point kernels (identical operation order ⇒ tight tolerance).
pub fn values_match(a: &[f64], b: &[f64]) -> bool {
    max_abs_diff(a, b) <= 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_sim::config::MachineConfig;

    fn machine() -> Machine {
        Machine::new(
            MachineConfig::default()
                .with_cores(1)
                .with_nvmm_bytes(1 << 20),
        )
    }

    #[test]
    fn pmatrix_addressing_and_io() {
        let mut m = machine();
        let mat = PMatrix::alloc(&mut m, 4, 8).unwrap();
        assert_eq!(mat.rows(), 4);
        assert_eq!(mat.cols(), 8);
        assert_eq!(mat.idx(2, 3), 2 * (8 + PMatrix::ROW_PAD) + 3);
        mat.poke(&mut m, 2, 3, 6.5);
        assert_eq!(mat.peek(&m, 2, 3), 6.5);
        let mut ctx = m.ctx(0);
        assert_eq!(mat.load(&mut ctx, 2, 3), 6.5);
        mat.store(&mut ctx, 0, 0, -1.0);
        assert_eq!(mat.load(&mut ctx, 0, 0), -1.0);
    }

    #[test]
    fn fill_and_peek_all_roundtrip() {
        let mut m = machine();
        let mat = PMatrix::alloc(&mut m, 3, 3).unwrap();
        let vals: Vec<f64> = (0..9).map(|i| i as f64).collect();
        mat.fill(&mut m, &vals);
        assert_eq!(mat.peek_all(&m), vals);
    }

    #[test]
    fn round_robin_covers_all_blocks_disjointly() {
        let owners = round_robin_blocks(10, 3);
        let mut seen: Vec<usize> = owners.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(owners[0], vec![0, 3, 6, 9]);
    }

    #[test]
    fn random_values_deterministic_per_seed() {
        assert_eq!(random_values(1, 16), random_values(1, 16));
        assert_ne!(random_values(1, 16), random_values(2, 16));
        assert!(random_values(3, 256)
            .iter()
            .all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn spd_matrix_is_symmetric_with_heavy_diagonal() {
        let n = 8;
        let a = random_spd(5, n);
        for i in 0..n {
            for j in 0..n {
                assert!((a[i * n + j] - a[j * n + i]).abs() < 1e-12);
            }
            assert!(a[i * n + i] > n as f64 * 0.5);
        }
    }

    #[test]
    fn diff_helpers() {
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.0, 2.5]), 0.5);
        assert!(values_match(&[1.0], &[1.0 + 1e-12]));
        assert!(!values_match(&[1.0], &[1.1]));
    }
}
