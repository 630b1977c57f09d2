//! The repository benchmark: four workloads over the Lazy Persistency
//! workspace, driven only through its public API, with an untraced run
//! for the end-to-end metrics and a traced run for the per-layer ones.
//!
//! See `README.md` in this directory for the workloads, the metric map
//! and how to run it.

mod cells;
mod census;
mod kernels;
pub mod metrics;
mod pins;
pub mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use lp_core::recovery::RecoveryStats;
use lp_kernels::driver::{KernelId, Scale};

use crate::cells::{Cell, RECOVERABLE, SCHEMES};
use crate::census::{case_ids, report_ok, TracedCensus};
use crate::kernels::CellRun;
use crate::metrics::{geomean, median, ratio, Counters, Metric, END_TO_END, RECOVERY_COUNTS};
use crate::pins::Checker;
use crate::trace::{span, Span};

/// A named input set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every kernel × scheme at Bench scale, crash-free.
    Kernels,
    /// Every kernel × recoverable scheme crashed at a seeded point and
    /// recovered.
    Recover,
    /// The crash-state model checker over every Micro kernel case.
    Census,
    /// The same census with torn, media-burst and nested faults armed.
    Faults,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Kernels,
        Workload::Recover,
        Workload::Census,
        Workload::Faults,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Kernels => "kernels",
            Workload::Recover => "recover",
            Workload::Census => "census",
            Workload::Faults => "faults",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Every random choice derives from it.
    pub seed: u64,
    /// Untraced runs repeat whole passes while the next one is expected
    /// to end within this many seconds (after the first two).
    pub seconds: f64,
    /// Run the traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Test-scale kernels and the smoke census budget (for the
    /// benchmark's own tests).
    pub tiny: bool,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (cells, cases, replayed states) checked.
    pub attempted: u64,
    /// Operations that did not verify or missed their pin.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced), in
    /// `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// The workload's headline numbers under their own names
    /// (`memops_per_s`, `recover_s`, `states_per_s`, ...).
    pub findings: Vec<Metric>,
    /// A per-cell table, one line each.
    pub table: Vec<String>,
    /// Why each failed operation failed, and other remarks.
    pub notes: Vec<String>,
    /// The first pass's signatures as `pins.txt` lines.
    pub pins: Vec<String>,
    /// The traced run's spans.
    pub spans: Vec<Span>,
    /// Untraced passes measured.
    pub passes: usize,
}

impl Outcome {
    /// Whether every operation checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn checked(opts: &Options, check: Checker) -> Self {
        let mut notes = check.notes.clone();
        if !check.pinned() && !opts.tiny {
            notes.push(format!(
                "seed {} has no pins: checked pass against pass only",
                opts.seed
            ));
        }
        Outcome {
            attempted: check.attempted,
            failed: check.failed,
            pins: check.pin_lines(opts.workload.name(), &opts.seed.to_string()),
            notes,
            ..Outcome::default()
        }
    }
}

/// Run one workload.
pub fn run(opts: &Options) -> Outcome {
    match (opts.workload, opts.trace) {
        (Workload::Kernels, false) => run_kernels(opts),
        (Workload::Recover, false) => run_recover(opts),
        (Workload::Kernels | Workload::Recover, true) => trace_cells(opts),
        (Workload::Census | Workload::Faults, false) => run_census(opts),
        (Workload::Census | Workload::Faults, true) => trace_census(opts),
    }
}

/// Set-up samples an untraced run takes at least: passes that did not
/// reach this many are topped up with set-up-only repetitions.
const SETUP_SAMPLES: usize = 5;

/// Passes an untraced run makes at least. The first pass in a process
/// runs 10–40% slower while the allocator warms, so every measured step
/// gets at least one warm sample.
const MIN_PASSES: usize = 2;

/// Whether an untraced run that has made `passes` passes (or rounds)
/// makes another, expected to take `next_s`: always below [`MIN_PASSES`],
/// else only if it ends within `seconds` of `start`.
fn another_pass(passes: usize, start: Instant, next_s: f64, seconds: f64) -> bool {
    passes < MIN_PASSES || start.elapsed().as_secs_f64() + next_s < seconds
}

/// Host threads the `census` workload explores on (capped at the host's).
const CENSUS_THREADS: usize = 2;

fn scale(opts: &Options) -> Scale {
    if opts.tiny {
        Scale::Test
    } else {
        Scale::Bench
    }
}

fn checker(opts: &Options) -> Checker {
    Checker::new(if opts.tiny {
        BTreeMap::new()
    } else {
        pins::pinned(opts.workload.name(), opts.seed)
    })
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn end_to_end(setup_s: f64, throughput: f64) -> Vec<Metric> {
    let values = [setup_s, throughput, metrics::peak_rss_mb()];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| metric(name, v, unit))
        .collect()
}

/// Rounds of [`kernels::recover_again`] in each pass of a traced run:
/// every cheap cell gets three samples, as in an untraced run's first
/// [`MIN_PASSES`] rounds.
const MIN_ROUNDS: usize = 2;

/// One pass of `kernels`, or of `recover` over `cells` (each with its
/// crash-free memory ops) followed by [`MIN_ROUNDS`] rounds.
fn cells_pass(opts: &Options, cells: &[(Cell, u64)]) -> Vec<CellRun> {
    if opts.workload == Workload::Recover {
        let keep_below = RESAMPLE_SHARE * opts.seconds;
        let (mut runs, kept) = kernels::recover_pass(scale(opts), opts.seed, cells, keep_below);
        for _ in 0..MIN_ROUNDS {
            kernels::recover_again(&kept, &mut runs);
        }
        span("sim.teardown", opts.workload.name(), || drop(kept));
        runs
    } else {
        kernels::kernels_pass(scale(opts), opts.seed)
    }
}

fn recover_cells(opts: &Options) -> Vec<(Cell, u64)> {
    if opts.workload == Workload::Recover {
        kernels::crash_free_memops(scale(opts), opts.seed)
    } else {
        Vec::new()
    }
}

/// Per cell of the first pass, the fastest of the passes that ran it at
/// the step `f` times. Noise from other work on a shared host only ever
/// slows a step down, and the first pass in a process runs 10–40% slower
/// while the allocator warms, so the fastest pass is the least disturbed
/// one.
fn best_times(passes: &[Vec<CellRun>], f: fn(&CellRun) -> f64) -> Vec<f64> {
    passes[0]
        .iter()
        .map(|first| {
            passes
                .iter()
                .flatten()
                .filter(|c| c.cell == first.cell)
                .map(f)
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// `kernels`: simulated memops per second of `Machine::run`, over all
/// cells. `recover`: cells recovered per second, the reciprocal of the
/// geometric mean of per-cell recovery seconds. Work the recovery ladder
/// adds or saves moves it; the seeded crash points, which move Σ recovery
/// time threefold, move it by about 10%, and a small cell's regression
/// does not hide behind Gauss.
fn cells_throughput(passes: &[Vec<CellRun>]) -> f64 {
    let cells = &passes[0];
    if cells[0].recovery.is_some() {
        ratio(1.0, geomean(&best_times(passes, |c| c.recover_s)))
    } else {
        let best = best_times(passes, |c| c.run_s);
        ratio(
            cells.iter().map(|c| c.memops as f64).sum(),
            best.iter().sum(),
        )
    }
}

/// Share of the run a `recover` cell's first recovery may take for the
/// cell to be recovered again in later rounds. Gauss under LP+par alone
/// takes 2 s and more; leaving it to one sample leaves the other cells
/// the time for enough samples that their fastest one shows.
const RESAMPLE_SHARE: f64 = 0.05;

fn run_kernels(opts: &Options) -> Outcome {
    let mut check = checker(opts);
    let (mut setups, mut passes) = (Vec::new(), Vec::<Vec<CellRun>>::new());
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let cells = kernels::kernels_pass(scale(opts), opts.seed);
        for c in &cells {
            check.check(&c.cell.id(), c.verified, c.signature());
        }
        setups.push(cells.iter().map(|c| c.setup_s).sum::<f64>());
        passes.push(cells);
        if !another_pass(passes.len(), start, t.elapsed().as_secs_f64(), opts.seconds) {
            break;
        }
    }
    while setups.len() < SETUP_SAMPLES {
        setups.push(kernels::setup_only(scale(opts), opts.seed, false));
    }
    let mut out = Outcome::checked(opts, check);
    out.passes = passes.len();
    let per_pass: Vec<f64> = passes
        .iter()
        .map(|p| cells_throughput(std::slice::from_ref(p)))
        .collect();
    out.notes.push(format!("throughput per pass: {per_pass:?}"));
    let throughput = cells_throughput(&passes);
    out.metrics = end_to_end(median(&setups), throughput);
    out.findings = vec![metric("memops_per_s", throughput, "1/s")];
    out.findings.extend(
        norms(&passes[0])
            .iter()
            .map(|(name, &v)| metric(name, v, "x")),
    );
    out.table = kernels_table(&passes);
    out.findings.push(metric("setup_s", median(&setups), "s"));
    out.findings
        .push(metric("peak_rss_mb", metrics::peak_rss_mb(), "MB"));
    out
}

/// `recover`: one pass crashes and recovers every cell. Then rounds
/// recover each cheap cell again from its crash image, while the next
/// round is expected to end within `--seconds`. The rounds simulate
/// nothing up to the crash, so most of the run is timed recovery. Each
/// cell's samples are spread over the whole run, and the fastest is kept.
/// Each round also takes one set-up sample, so that `setup_s` is the
/// median over the run too.
fn run_recover(opts: &Options) -> Outcome {
    let cells = recover_cells(opts);
    let mut check = checker(opts);
    let start = Instant::now();
    let keep_below = RESAMPLE_SHARE * opts.seconds;
    let (mut runs, kept) = kernels::recover_pass(scale(opts), opts.seed, &cells, keep_below);
    let mut setups = vec![runs.iter().map(|c| c.setup_s).sum::<f64>()];
    let (mut rounds, mut round_s) = (0, 0.0);
    while !kept.is_empty() && another_pass(rounds, start, round_s, opts.seconds) {
        let t = Instant::now();
        kernels::recover_again(&kept, &mut runs);
        setups.push(kernels::setup_only(scale(opts), opts.seed, true));
        round_s = t.elapsed().as_secs_f64();
        rounds += 1;
    }
    let kept_cells = kept.len();
    drop(kept);
    for c in &runs {
        check.check(&c.cell.id(), c.verified, c.signature());
    }
    while setups.len() < SETUP_SAMPLES {
        setups.push(kernels::setup_only(scale(opts), opts.seed, true));
    }
    let mut out = Outcome::checked(opts, check);
    out.passes = 1 + rounds;
    out.notes.push(format!(
        "{kept_cells} of {} cells recovered {} times each, the others once",
        runs.len(),
        1 + rounds
    ));
    let passes = std::slice::from_ref(&runs);
    out.metrics = end_to_end(median(&setups), cells_throughput(passes));
    let best_ms: Vec<f64> = runs.iter().map(|c| c.recover_s * 1e3).collect();
    out.findings = vec![
        metric("recover_s", best_ms.iter().sum::<f64>() / 1e3, "s"),
        metric("recover_geomean_ms", geomean(&best_ms), "ms"),
        metric(
            "recover_sim_cycles",
            runs.iter()
                .map(|c| c.recovery.map_or(0, |r| r.cycles))
                .sum::<u64>() as f64,
            "cycles",
        ),
        metric("setup_s", median(&setups), "s"),
        metric("peak_rss_mb", metrics::peak_rss_mb(), "MB"),
    ];
    out.table = recover_table(opts.seed, passes);
    out
}

/// `exec_norm.<scheme>` and `writes_norm.<scheme>`: the geometric mean
/// over kernels of each scheme's cycles (NVMM writes) over base's — the
/// shape of the paper's Figures 10 and 11. Kernels whose base run writes
/// nothing to NVMM (Cholesky's window fits in cache) have no write ratio
/// and are left out of `writes_norm`.
fn norms(cells: &[CellRun]) -> BTreeMap<String, f64> {
    let find = |k: KernelId, key: &str| {
        cells
            .iter()
            .find(|c| c.cell.kernel == k && cells::scheme_key(c.cell.scheme) == key)
    };
    let mut out = BTreeMap::new();
    for (_, key) in RECOVERABLE {
        let (mut cyc, mut wr) = (Vec::new(), Vec::new());
        for k in KernelId::ALL {
            if let (Some(b), Some(s)) = (find(k, "base"), find(k, key)) {
                cyc.push(ratio(s.exec_cycles as f64, b.exec_cycles as f64));
                if b.nvmm_writes > 0 {
                    wr.push(s.nvmm_writes as f64 / b.nvmm_writes as f64);
                }
            }
        }
        out.insert(format!("exec_norm.{key}"), geomean(&cyc));
        out.insert(format!("writes_norm.{key}"), geomean(&wr));
    }
    out
}

fn kernels_table(passes: &[Vec<CellRun>]) -> Vec<String> {
    let mut out = vec![format!(
        "{:<16} {:>10} {:>11} {:>9} {:>10} {:>8}",
        "cell", "memops", "exec_cyc", "writes", "run_ms", "ns/op"
    )];
    let best = best_times(passes, |c| c.run_s);
    for (c, &run_s) in passes[0].iter().zip(&best) {
        out.push(format!(
            "{:<16} {:>10} {:>11} {:>9} {:>10.2} {:>8.1}",
            c.cell.id(),
            c.memops,
            c.exec_cycles,
            c.nvmm_writes,
            run_s * 1e3,
            ratio(run_s * 1e9, c.memops as f64)
        ));
    }
    out
}

/// Per-cell recovery: crash point, host time (fastest pass),
/// simulated cycles and ladder counts, and for each LP+par cell its cost
/// relative to LP(modular) crashed at the same point of the same kernel.
fn recover_table(seed: u64, passes: &[Vec<CellRun>]) -> Vec<String> {
    let cells = &passes[0];
    let rec_ms: Vec<f64> = best_times(passes, |c| c.recover_s)
        .iter()
        .map(|t| t * 1e3)
        .collect();
    let mut out = vec![format!(
        "{:<16} {:>5} {:>9} {:>10} {:>12} {:>6} {:>6} {:>6} {:>14}",
        "cell",
        "crash",
        "at_op",
        "recover_ms",
        "rec_cycles",
        "incons",
        "repair",
        "rfail",
        "lp-par/lp h|S"
    )];
    for (i, c) in cells.iter().enumerate() {
        let r = c.recovery.unwrap_or_default();
        let vs_lp = (cells::scheme_key(c.cell.scheme) == "lp-par")
            .then(|| {
                cells.iter().position(|o| {
                    o.cell.kernel == c.cell.kernel && cells::scheme_key(o.cell.scheme) == "lp"
                })
            })
            .flatten()
            .map_or(String::new(), |j| {
                let lp = cells[j].recovery.unwrap_or_default();
                format!(
                    "{:.1}x|{:.1}x",
                    ratio(rec_ms[i], rec_ms[j]),
                    ratio(r.cycles as f64, lp.cycles as f64)
                )
            });
        out.push(format!(
            "{:<16} {:>5.3} {:>9} {:>10.2} {:>12} {:>6} {:>6} {:>6} {:>14}",
            c.cell.id(),
            cells::crash_fraction(seed, c.cell.kernel),
            c.memops,
            rec_ms[i],
            r.cycles,
            r.regions_inconsistent,
            r.repaired_lines,
            r.repair_failures,
            vs_lp
        ));
    }
    out
}

/// Per-layer values from the spans: tracing overhead and coverage, self
/// time per layer and per step, recovery seconds per scheme and checker
/// seconds per case.
fn span_metrics(spans: &[Span], untraced_s: f64, traced_s: f64, out: &mut BTreeMap<String, f64>) {
    let selfs = trace::self_times(spans);
    let wall = spans.first().map_or(0.0, Span::duration);
    let layers = trace::self_by_layer(spans, &selfs);
    for l in metrics::LAYERS {
        out.insert(
            format!("layer.{l}.self_s"),
            layers.get(l).copied().unwrap_or(0.0),
        );
    }
    let bench = layers.get("bench").copied().unwrap_or(0.0);
    out.insert("trace.coverage".into(), ratio(wall - bench, wall));
    out.insert("trace.overhead".into(), ratio(traced_s, untraced_s));
    let by_name = trace::self_by_name(spans, &selfs);
    for step in [
        "kernels.setup",
        "kernels.verify",
        "sim.run",
        "sim.drain",
        "sim.snapshot_run",
        "sim.materialize",
        "sim.fork",
    ] {
        out.insert(
            format!("{step}_s"),
            by_name.get(step).copied().unwrap_or(0.0),
        );
    }
    for ((name, id), t) in trace::self_by_name_id(spans, &selfs) {
        // Recovery spans are charged to their scheme; checker spans
        // (which contain recoveries) keep their total, as `case_s`.
        if name == "core.recover" {
            let scheme = id.split_once('.').map_or(id, |(_, s)| s);
            *out.entry(format!("core.recover_s.{scheme}")).or_default() += t;
        }
    }
    for s in spans.iter().filter(|s| s.name == "crashmc.case") {
        *out.entry(format!("crashmc.case_s.{}", s.id)).or_default() += s.duration();
    }
}

/// The `RecoveryStats` counts, and simulated recovery cycles per host
/// second of the recoveries that produced them (`recover_s`).
fn recovery_metrics(r: &RecoveryStats, recover_s: f64, out: &mut BTreeMap<String, f64>) {
    let counts = [
        r.regions_checked,
        r.regions_inconsistent,
        r.recomputed_regions,
        r.repaired_lines,
        r.repair_failures,
        r.escalations,
        r.regions_quarantined,
    ];
    for (name, v) in RECOVERY_COUNTS.iter().zip(counts) {
        out.insert((*name).to_string(), v as f64);
    }
    out.insert("core.recover_sim_cycles".into(), r.cycles as f64);
    out.insert(
        "core.recover_cycles_per_s".into(),
        ratio(r.cycles as f64, recover_s),
    );
    out.insert(
        "core.repair_success".into(),
        ratio(
            r.repaired_lines as f64,
            (r.repaired_lines + r.repair_failures) as f64,
        ),
    );
}

/// Every declared per-layer metric, in order, 0 where this workload does
/// not run the layer.
fn per_layer(values: &BTreeMap<String, f64>) -> Vec<Metric> {
    metrics::per_layer_spec()
        .into_iter()
        .map(|(name, unit)| {
            let v = values.get(&name).copied().unwrap_or(0.0);
            Metric {
                name,
                value: v,
                unit,
            }
        })
        .collect()
}

/// Check the spans nest; a malformed trace is a failed operation.
fn check_spans(spans: &[Span], out: &mut Outcome) {
    out.attempted += 1;
    if let Err(e) = trace::check_nesting(spans) {
        out.failed += 1;
        out.notes.push(format!("trace: {e}"));
    }
}

fn trace_cells(opts: &Options) -> Outcome {
    let recover = opts.workload == Workload::Recover;
    let all = recover_cells(opts);
    let mut check = checker(opts);
    // The first pass in a process runs slower while the allocator warms,
    // so the untraced wall is the faster of two passes.
    let mut untraced_s = f64::INFINITY;
    for _ in 0..2 {
        let t = Instant::now();
        let untraced = cells_pass(opts, &all);
        untraced_s = untraced_s.min(t.elapsed().as_secs_f64());
        for c in &untraced {
            check.check(&c.cell.id(), c.verified, c.signature());
        }
    }
    trace::start();
    let traced = span("bench.pass", opts.workload.name(), || {
        cells_pass(opts, &all)
    });
    let spans = trace::finish();
    for c in &traced {
        check.check(&c.cell.id(), c.verified, c.signature());
    }
    let mut out = Outcome::checked(opts, check);
    check_spans(&spans, &mut out);

    let mut values = BTreeMap::new();
    span_metrics(&spans, untraced_s, spans[0].duration(), &mut values);
    let mut ns_per_memop = BTreeMap::new();
    for (_, key) in SCHEMES {
        let of: Vec<&CellRun> = traced
            .iter()
            .filter(|c| cells::scheme_key(c.cell.scheme) == key)
            .collect();
        if of.is_empty() {
            continue;
        }
        let mut counters = Counters::default();
        for c in &of {
            counters.add(&c.stats, c.phase_memops, c.drain_writes);
        }
        counters.insert(key, &mut values);
        let ns = ratio(
            of.iter().map(|c| c.run_s).sum::<f64>() * 1e9,
            of.iter().map(|c| c.memops as f64).sum(),
        );
        ns_per_memop.insert(key, ns);
        values.insert(format!("sim.ns_per_memop.{key}"), ns);
    }
    if recover {
        let mut total = RecoveryStats::default();
        for r in traced.iter().filter_map(|c| c.recovery) {
            total.merge(&r);
        }
        let recover_s = traced.iter().map(|c| c.recover_s).sum();
        recovery_metrics(&total, recover_s, &mut values);
        out.table = recover_table(opts.seed, std::slice::from_ref(&traced));
    } else {
        values.extend(norms(&traced));
        values.insert(
            "core.lp_host_overhead".into(),
            ratio(ns_per_memop["lp"], ns_per_memop["base"]),
        );
        out.table = kernels_table(std::slice::from_ref(&traced));
    }
    out.metrics = per_layer(&values);
    out.spans = spans;
    out
}

fn census_threads(opts: &Options) -> usize {
    if opts.workload == Workload::Faults {
        1
    } else {
        CENSUS_THREADS.min(lp_sim::par::available_threads())
    }
}

fn check_reports(check: &mut Checker, reports: &[lp_crashmc::mc::McReport]) {
    for (id, r) in case_ids().iter().zip(reports) {
        check.check(id, report_ok(r), census::signature(r));
        if !report_ok(r) {
            check.notes.push(format!(
                "{id}: corrupt {} stuck {} flips_missed {}, seed {}, first bad states {:?}",
                r.corrupt, r.stuck, r.tally.flips_missed, r.seed, r.examples
            ));
        }
    }
}

fn run_census(opts: &Options) -> Outcome {
    let faults = opts.workload == Workload::Faults;
    let seed = cells::crashmc_seed(opts.seed);
    let mut check = checker(opts);
    let (mut setups, mut rates) = (Vec::new(), Vec::new());
    let mut states;
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let pass = census::census_pass(faults, opts.tiny, seed, census_threads(opts));
        check_reports(&mut check, &pass.reports);
        states = pass.reports.iter().map(|r| r.states_checked).sum::<u64>();
        setups.push(pass.setup_s);
        rates.push(ratio(states as f64, pass.check_s));
        if !another_pass(rates.len(), start, t.elapsed().as_secs_f64(), opts.seconds) {
            break;
        }
    }
    let passes = rates.len();
    while setups.len() < SETUP_SAMPLES {
        let t = Instant::now();
        for (k, s) in census::case_list() {
            drop((lp_crashmc::cases::kernel_case(k, s, Scale::Micro).build)());
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut out = Outcome::checked(opts, check);
    out.notes.push(format!("throughput per pass: {rates:?}"));
    out.passes = passes;
    // The fastest pass, for the reason `best_times` gives.
    let best = rates.iter().copied().fold(0.0, f64::max);
    out.metrics = end_to_end(median(&setups), best);
    out.findings = vec![
        metric("states_per_s", best, "1/s"),
        metric("states", states as f64, "count"),
        metric("setup_s", median(&setups), "s"),
        metric("peak_rss_mb", metrics::peak_rss_mb(), "MB"),
    ];
    out
}

fn trace_census(opts: &Options) -> Outcome {
    let faults = opts.workload == Workload::Faults;
    let seed = cells::crashmc_seed(opts.seed);
    let mut check = checker(opts);
    // The same per-case calls untraced, twice: the faster pass is the one
    // the allocator had warmed for.
    let untraced: Vec<TracedCensus> = (0..2)
        .map(|_| census::check_each(faults, opts.tiny, seed))
        .collect();
    let untraced_s = untraced
        .iter()
        .map(|u| u.case_s.values().sum::<f64>())
        .fold(f64::INFINITY, f64::min);
    trace::start();
    let traced: TracedCensus = span("bench.pass", opts.workload.name(), || {
        census::census_traced(faults, opts.tiny, seed)
    });
    let spans = trace::finish();
    for u in &untraced {
        check_reports(&mut check, &u.reports);
    }
    check_reports(&mut check, &traced.reports);
    let mut out = Outcome::checked(opts, check);
    out.attempted += traced.replay_states;
    out.failed += traced.replay_failures;
    if traced.replay_failures > 0 {
        out.notes.push(format!(
            "replay: {} states did not verify",
            traced.replay_failures
        ));
    }
    check_spans(&spans, &mut out);

    let mut values = BTreeMap::new();
    span_metrics(
        &spans,
        untraced_s,
        traced.case_s.values().sum(),
        &mut values,
    );
    for (key, counters) in &traced.sim {
        counters.insert(key, &mut values);
        values.insert(
            format!("sim.ns_per_memop.{key}"),
            ratio(traced.run_s[key] * 1e9, counters.memops as f64),
        );
    }
    let mut total = RecoveryStats::default();
    for (r, _) in traced.recovery.values() {
        total.merge(r);
    }
    let recover_s = traced.recovery.values().map(|(_, s)| s).sum();
    recovery_metrics(&total, recover_s, &mut values);
    let reps = &untraced[0].reports;
    let sum = |f: fn(&lp_crashmc::mc::McReport) -> u64| reps.iter().map(f).sum::<u64>() as f64;
    let states = sum(|r| r.states_checked);
    let dedup = sum(|r| r.dedup_hits);
    for (name, v) in [
        ("crashmc.states_checked", states),
        ("crashmc.dedup_hits", dedup),
        ("crashmc.dedup_rate", ratio(dedup, states)),
        ("crashmc.replay_saved_ops", sum(|r| r.replay_saved_ops)),
        ("crashmc.points", sum(|r| r.points.len() as u64)),
        (
            "crashmc.max_census",
            reps.iter().map(|r| r.max_census).max().unwrap_or(0) as f64,
        ),
        (
            "crashmc.torn_words_dropped",
            sum(|r| r.tally.torn_words_dropped),
        ),
        ("crashmc.poisons", sum(|r| r.tally.poisons)),
        ("crashmc.bursts", sum(|r| r.tally.bursts)),
        ("crashmc.nested_crashes", sum(|r| r.tally.nested_crashes)),
        ("crashmc.retries", sum(|r| r.tally.retries)),
    ] {
        values.insert(name.into(), v);
    }
    out.table = case_ids()
        .iter()
        .zip(reps)
        .map(|(id, r)| {
            format!(
                "{:<16} states {:>6} dedup {:>5} points {:>3} max_census {:>3} traced_s {:.3}",
                id,
                r.states_checked,
                r.dedup_hits,
                r.points.len(),
                r.max_census,
                traced.case_s.get(id).copied().unwrap_or(0.0)
            )
        })
        .collect();
    out.metrics = per_layer(&values);
    out.spans = spans;
    out
}
