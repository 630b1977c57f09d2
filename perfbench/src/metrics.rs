//! Metric names, units and the small aggregates they are computed from.

use std::collections::BTreeMap;

use lp_sim::stats::SimStats;

use crate::cells::{RECOVERABLE, SCHEMES};
use crate::census::case_ids;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The end-to-end metrics every workload reports from its untraced run.
///
/// `throughput` counts each workload's own unit of work per host second:
/// simulated memory ops (`kernels`), recovered cells (`recover`, a
/// geometric mean over cells) and judged crash states (`census`,
/// `faults`).
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Modelled counters per scheme, in metric order: name stem and unit.
const SIM_COUNTERS: [(&str, &str); 11] = [
    ("sim.memops", "count"),
    ("sim.exec_cycles", "cycles"),
    ("sim.fence_stall_cycles", "cycles"),
    ("sim.flushes", "count"),
    ("sim.mshr_full_events", "count"),
    ("sim.l2_miss_rate", "x"),
    ("sim.nvmm_writes.eviction", "count"),
    ("sim.nvmm_writes.flush", "count"),
    ("sim.nvmm_writes.clwb", "count"),
    ("sim.nvmm_writes.drain", "count"),
    ("sim.coherence_recalls", "count"),
];

/// Recovery-ladder counters summed from `RecoveryStats`.
pub const RECOVERY_COUNTS: [&str; 7] = [
    "core.regions_checked",
    "core.regions_inconsistent",
    "core.recomputed_regions",
    "core.repaired_lines",
    "core.repair_failures",
    "core.escalations",
    "core.regions_quarantined",
];

/// Layers a span can belong to; `bench` is the benchmark's own code.
pub const LAYERS: [&str; 5] = ["bench", "kernels", "sim", "core", "crashmc"];

/// Every per-layer metric the traced run reports, in output order.
/// A workload that does not run a layer reports 0 for its metrics.
pub fn per_layer_spec() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("trace.overhead".into(), "x"),
        ("trace.coverage".into(), "x"),
    ];
    out.extend(LAYERS.iter().map(|l| (format!("layer.{l}.self_s"), "s")));
    for name in [
        "kernels.setup_s",
        "kernels.verify_s",
        "sim.run_s",
        "sim.drain_s",
        "sim.snapshot_run_s",
        "sim.materialize_s",
        "sim.fork_s",
    ] {
        out.push((name.into(), "s"));
    }
    out.extend(
        SCHEMES
            .iter()
            .map(|(_, k)| (format!("sim.ns_per_memop.{k}"), "ns")),
    );
    for (_, k) in SCHEMES {
        out.extend(
            SIM_COUNTERS
                .iter()
                .map(|(stem, unit)| (format!("{stem}.{k}"), *unit)),
        );
    }
    out.extend(
        RECOVERABLE
            .iter()
            .map(|(_, k)| (format!("exec_norm.{k}"), "x")),
    );
    out.extend(
        RECOVERABLE
            .iter()
            .map(|(_, k)| (format!("writes_norm.{k}"), "x")),
    );
    out.push(("core.lp_host_overhead".into(), "x"));
    out.extend(
        RECOVERABLE
            .iter()
            .map(|(_, k)| (format!("core.recover_s.{k}"), "s")),
    );
    out.push(("core.recover_sim_cycles".into(), "cycles"));
    out.push(("core.recover_cycles_per_s".into(), "1/s"));
    out.extend(RECOVERY_COUNTS.iter().map(|n| ((*n).to_string(), "count")));
    out.push(("core.repair_success".into(), "x"));
    for (name, unit) in [
        ("crashmc.states_checked", "count"),
        ("crashmc.dedup_hits", "count"),
        ("crashmc.dedup_rate", "x"),
        ("crashmc.replay_saved_ops", "count"),
        ("crashmc.points", "count"),
        ("crashmc.max_census", "count"),
        ("crashmc.torn_words_dropped", "count"),
        ("crashmc.poisons", "count"),
        ("crashmc.bursts", "count"),
        ("crashmc.nested_crashes", "count"),
        ("crashmc.retries", "count"),
    ] {
        out.push((name.into(), unit));
    }
    out.extend(
        case_ids()
            .into_iter()
            .map(|id| (format!("crashmc.case_s.{id}"), "s")),
    );
    out
}

/// Modelled counters summed over the runs of one scheme.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Simulated memory ops.
    pub memops: u64,
    /// Σ per-run execution cycles.
    pub exec_cycles: u64,
    /// Cycles cores stalled on fences.
    pub fence_stall_cycles: u64,
    /// Flush instructions.
    pub flushes: u64,
    /// Times a core found its MSHRs full.
    pub mshr_full_events: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// NVMM writes by natural eviction.
    pub writes_eviction: u64,
    /// NVMM writes by `clflushopt`.
    pub writes_flush: u64,
    /// NVMM writes by `clwb`.
    pub writes_clwb: u64,
    /// NVMM writes by the drain before verification.
    pub writes_drain: u64,
    /// Dirty lines pulled from a peer L1.
    pub coherence_recalls: u64,
}

impl Counters {
    /// Add one run: its statistics (taken before the drain), its memory
    /// ops and the writes its drain made.
    pub fn add(&mut self, s: &SimStats, memops: u64, drain_writes: u64) {
        let t = s.core_totals();
        self.memops += memops;
        self.exec_cycles += s.exec_cycles();
        self.fence_stall_cycles += t.fence_stall_cycles;
        self.flushes += t.flushes;
        self.mshr_full_events += t.mshr_full_events;
        self.l2_hits += s.mem.l2_hits;
        self.l2_misses += s.mem.l2_misses;
        self.writes_eviction += s.mem.nvmm_writes_eviction;
        self.writes_flush += s.mem.nvmm_writes_flush;
        self.writes_clwb += s.mem.nvmm_writes_clwb;
        self.writes_drain += s.mem.nvmm_writes_drain + drain_writes;
        self.coherence_recalls += s.mem.coherence_recalls;
    }

    /// The values of [`SIM_COUNTERS`], in order.
    fn values(&self) -> [f64; 11] {
        let l2 = self.l2_hits + self.l2_misses;
        [
            self.memops as f64,
            self.exec_cycles as f64,
            self.fence_stall_cycles as f64,
            self.flushes as f64,
            self.mshr_full_events as f64,
            ratio(self.l2_misses as f64, l2 as f64),
            self.writes_eviction as f64,
            self.writes_flush as f64,
            self.writes_clwb as f64,
            self.writes_drain as f64,
            self.coherence_recalls as f64,
        ]
    }

    /// Insert this scheme's `sim.*.<key>` metrics into `out`.
    pub fn insert(&self, key: &str, out: &mut BTreeMap<String, f64>) {
        for ((stem, _), v) in SIM_COUNTERS.iter().zip(self.values()) {
            out.insert(format!("{stem}.{key}"), v);
        }
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median of `xs` (0 for none).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Geometric mean of positive `xs` (0 for none).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Peak resident memory of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_within_limits() {
        let spec = per_layer_spec();
        assert!(spec.len() <= 128, "{} metrics", spec.len());
        let mut names: Vec<_> = spec.iter().map(|(n, _)| n.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), spec.len());
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }

    #[test]
    fn medians_and_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
