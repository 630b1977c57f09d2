//! Simulation statistics: cycles, cache behaviour, NVMM write breakdown,
//! structural hazards, and volatility duration.
//!
//! The paper reports (a) normalized execution time, (b) normalized number of
//! NVMM writes (write amplification), (c) structural-hazard event counts
//! (Table VI), (d) L2 miss rate, and (e) the maximum *volatility duration* —
//! the time a block stays dirty in the hierarchy before reaching NVMM.

/// A power-of-two-bucketed histogram (bucket `i` counts samples in
/// `[2^i, 2^(i+1))`; bucket 0 also holds zeros).
///
/// Used for volatility durations: the paper reasons about how long blocks
/// stay dirty before reaching NVMM, and the distribution (not just the
/// max) is what a periodic cleaner reshapes.
///
/// # Examples
///
/// ```
/// use lp_sim::stats::Log2Histogram;
/// let mut h = Log2Histogram::default();
/// h.record(1);
/// h.record(1000);
/// h.record(1000);
/// assert_eq!(h.samples(), 3);
/// assert_eq!(h.percentile(50.0), Some(1 << 9)); // ~1000 bucket
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; 64],
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram { buckets: [0; 64] }
    }
}

impl Log2Histogram {
    /// Add one sample.
    pub fn record(&mut self, value: u64) {
        let b = 63 - value.max(1).leading_zeros() as usize;
        self.buckets[b] += 1;
    }

    /// Total samples recorded.
    pub fn samples(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Lower bound of the bucket containing the p-th percentile
    /// (`None` if empty).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0..=100.0`.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        let total = self.samples();
        if total == 0 {
            return None;
        }
        let target = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(1u64 << i);
            }
        }
        Some(1u64 << 63)
    }

    /// Occupied `(bucket_lower_bound, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (1u64 << i, c))
            .collect()
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

/// Per-core event counters and cycle accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Core-local cycle counter at the end of execution.
    pub cycles: u64,
    /// Dynamic instruction count (memory ops + modelled compute ops).
    pub instructions: u64,
    /// Load operations issued.
    pub loads: u64,
    /// Store operations issued.
    pub stores: u64,
    /// `clflushopt` operations issued.
    pub flushes: u64,
    /// `clwb` operations issued.
    pub writebacks_issued: u64,
    /// `sfence` operations issued.
    pub fences: u64,
    /// Cycles spent stalled at fences waiting for drains.
    pub fence_stall_cycles: u64,
    /// Events where an L1 miss found all MSHRs busy (Table VI "MSHR").
    pub mshr_full_events: u64,
    /// Integer issue slots blocked by pipeline stalls (Table VI "FUI"
    /// proxy: half the slots each store-queue, MSHR or fence stall
    /// blocks).
    pub fui_events: u64,
    /// Load issue slots blocked by pipeline stalls (Table VI "FUR" proxy:
    /// 40% of the slots each stall blocks; loads themselves never queue).
    pub fur_events: u64,
    /// Events where a store/flush found the store queue full (Table VI "FUW").
    pub fuw_events: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
}

impl CoreStats {
    /// Total L1 accesses.
    pub fn l1_accesses(&self) -> u64 {
        self.l1_hits + self.l1_misses
    }

    /// Merge another core's counters into this one (for aggregation).
    pub fn merge(&mut self, other: &CoreStats) {
        self.cycles = self.cycles.max(other.cycles);
        self.instructions += other.instructions;
        self.loads += other.loads;
        self.stores += other.stores;
        self.flushes += other.flushes;
        self.writebacks_issued += other.writebacks_issued;
        self.fences += other.fences;
        self.fence_stall_cycles += other.fence_stall_cycles;
        self.mshr_full_events += other.mshr_full_events;
        self.fui_events += other.fui_events;
        self.fur_events += other.fur_events;
        self.fuw_events += other.fuw_events;
        self.l1_hits += other.l1_hits;
        self.l1_misses += other.l1_misses;
    }
}

/// Why a line was written to NVMM. The paper's "number of writes" metric
/// counts all of these; the breakdown lets experiments distinguish natural
/// evictions from flush-induced and cleaner-induced writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteCause {
    /// Natural L2 capacity/conflict eviction of a dirty line.
    Eviction,
    /// Explicit `clflushopt`/`clflush`.
    Flush,
    /// Explicit `clwb` (write back, retain line).
    Clwb,
    /// Periodic hardware cleaner.
    Cleaner,
    /// Bulk drain requested by the harness (e.g. end-of-run flush).
    Drain,
}

/// Shared memory-system counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStats {
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses (lead to NVMM reads).
    pub l2_misses: u64,
    /// NVMM line reads (fills).
    pub nvmm_reads: u64,
    /// NVMM line writes from natural dirty evictions.
    pub nvmm_writes_eviction: u64,
    /// NVMM line writes from explicit flushes (`clflushopt`).
    pub nvmm_writes_flush: u64,
    /// NVMM line writes from `clwb`.
    pub nvmm_writes_clwb: u64,
    /// NVMM line writes performed by the periodic cleaner.
    pub nvmm_writes_cleaner: u64,
    /// NVMM line writes from harness-requested drains.
    pub nvmm_writes_drain: u64,
    /// Coherence recalls (dirty data pulled from a peer L1).
    pub coherence_recalls: u64,
    /// Coherence invalidations sent to peer L1s.
    pub coherence_invalidations: u64,
    /// Maximum volatility duration observed (cycles a block stayed dirty
    /// in the hierarchy before its data reached NVMM).
    pub max_volatility: u64,
    /// Sum of volatility durations (for averages).
    pub total_volatility: u64,
    /// Number of volatility samples (dirty lines written back).
    pub volatility_samples: u64,
    /// Distribution of volatility durations.
    pub volatility_hist: Log2Histogram,
}

impl MemStats {
    /// Total NVMM line writes, the paper's "number of writes" metric.
    pub fn nvmm_writes(&self) -> u64 {
        self.nvmm_writes_eviction
            + self.nvmm_writes_flush
            + self.nvmm_writes_clwb
            + self.nvmm_writes_cleaner
            + self.nvmm_writes_drain
    }

    /// L2 accesses.
    pub fn l2_accesses(&self) -> u64 {
        self.l2_hits + self.l2_misses
    }

    /// L2 miss rate in [0, 1]; 0 if no accesses.
    pub fn l2_miss_rate(&self) -> f64 {
        let acc = self.l2_accesses();
        if acc == 0 {
            0.0
        } else {
            self.l2_misses as f64 / acc as f64
        }
    }

    /// Mean volatility duration in cycles; 0 if no samples.
    pub fn mean_volatility(&self) -> f64 {
        if self.volatility_samples == 0 {
            0.0
        } else {
            self.total_volatility as f64 / self.volatility_samples as f64
        }
    }

    /// Record one NVMM line write with its cause.
    pub(crate) fn record_write(&mut self, cause: WriteCause) {
        match cause {
            WriteCause::Eviction => self.nvmm_writes_eviction += 1,
            WriteCause::Flush => self.nvmm_writes_flush += 1,
            WriteCause::Clwb => self.nvmm_writes_clwb += 1,
            WriteCause::Cleaner => self.nvmm_writes_cleaner += 1,
            WriteCause::Drain => self.nvmm_writes_drain += 1,
        }
    }

    /// Record a volatility-duration sample.
    pub(crate) fn record_volatility(&mut self, cycles: u64) {
        self.max_volatility = self.max_volatility.max(cycles);
        self.total_volatility += cycles;
        self.volatility_samples += 1;
        self.volatility_hist.record(cycles);
    }
}

/// Complete statistics for one simulated run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Per-core counters.
    pub cores: Vec<CoreStats>,
    /// Shared memory-system counters.
    pub mem: MemStats,
}

impl SimStats {
    /// Execution time: the maximum core cycle count (cores run in parallel).
    pub fn exec_cycles(&self) -> u64 {
        self.cores.iter().map(|c| c.cycles).max().unwrap_or(0)
    }

    /// Aggregate of all per-core counters (cycles = max across cores).
    pub fn core_totals(&self) -> CoreStats {
        let mut total = CoreStats::default();
        for c in &self.cores {
            total.merge(c);
        }
        total
    }

    /// Total dynamic instructions across cores.
    pub fn instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.instructions).sum()
    }

    /// Total NVMM writes (the write-amplification numerator).
    pub fn nvmm_writes(&self) -> u64 {
        self.mem.nvmm_writes()
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let t = self.core_totals();
        format!(
            "cycles={} insts={} loads={} stores={} flushes={} fences={} \
             l2mr={:.4} nvmm_writes={} (evict={} flush={} clwb={} cleaner={} drain={}) maxvdur={}",
            self.exec_cycles(),
            t.instructions,
            t.loads,
            t.stores,
            t.flushes,
            t.fences,
            self.mem.l2_miss_rate(),
            self.nvmm_writes(),
            self.mem.nvmm_writes_eviction,
            self.mem.nvmm_writes_flush,
            self.mem.nvmm_writes_clwb,
            self.mem.nvmm_writes_cleaner,
            self.mem.nvmm_writes_drain,
            self.mem.max_volatility,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_cause_breakdown_sums() {
        let mut m = MemStats::default();
        m.record_write(WriteCause::Eviction);
        m.record_write(WriteCause::Eviction);
        m.record_write(WriteCause::Flush);
        m.record_write(WriteCause::Cleaner);
        m.record_write(WriteCause::Clwb);
        m.record_write(WriteCause::Drain);
        assert_eq!(m.nvmm_writes(), 6);
        assert_eq!(m.nvmm_writes_eviction, 2);
        assert_eq!(m.nvmm_writes_flush, 1);
    }

    #[test]
    fn l2_miss_rate_handles_zero() {
        let m = MemStats::default();
        assert_eq!(m.l2_miss_rate(), 0.0);
        let m = MemStats {
            l2_hits: 90,
            l2_misses: 10,
            ..Default::default()
        };
        assert!((m.l2_miss_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn volatility_tracking() {
        let mut m = MemStats::default();
        m.record_volatility(10);
        m.record_volatility(50);
        m.record_volatility(30);
        assert_eq!(m.max_volatility, 50);
        assert_eq!(m.volatility_samples, 3);
        assert!((m.mean_volatility() - 30.0).abs() < 1e-12);
        assert_eq!(m.volatility_hist.samples(), 3);
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let mut h = Log2Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 100, 1000, 100_000] {
            h.record(v);
        }
        assert_eq!(h.samples(), 8);
        // 0 and 1 land in bucket 0.
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets[0], (1, 2));
        assert_eq!(h.percentile(0.0), Some(1));
        assert_eq!(h.percentile(100.0), Some(1 << 16));
        assert!(h.percentile(50.0).unwrap() <= 100);
        let mut other = Log2Histogram::default();
        other.record(1000);
        h.merge(&other);
        assert_eq!(h.samples(), 9);
    }

    #[test]
    fn empty_histogram_has_no_percentile() {
        let h = Log2Histogram::default();
        assert_eq!(h.percentile(50.0), None);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_rejects_out_of_range() {
        let _ = Log2Histogram::default().percentile(101.0);
    }

    #[test]
    fn exec_cycles_is_max_core() {
        let stats = SimStats {
            cores: vec![
                CoreStats {
                    cycles: 10,
                    ..Default::default()
                },
                CoreStats {
                    cycles: 42,
                    ..Default::default()
                },
            ],
            mem: MemStats::default(),
        };
        assert_eq!(stats.exec_cycles(), 42);
    }

    #[test]
    fn merge_accumulates_and_maxes() {
        let a = CoreStats {
            cycles: 5,
            loads: 1,
            fuw_events: 2,
            ..Default::default()
        };
        let mut b = CoreStats {
            cycles: 3,
            loads: 4,
            ..Default::default()
        };
        b.merge(&a);
        assert_eq!(b.cycles, 5);
        assert_eq!(b.loads, 5);
        assert_eq!(b.fuw_events, 2);
    }

    #[test]
    fn summary_is_nonempty() {
        let s = SimStats::default();
        assert!(s.summary().contains("cycles=0"));
    }
}
