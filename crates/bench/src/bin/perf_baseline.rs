//! `perf_baseline` — machine-readable performance baseline for the repo's
//! heavy consumers: the simulator (memops/sec), the crash-state model
//! checker (states/sec) with thread-scaling of the snapshot-resume
//! exploration engine at 1/2/4/8 host threads plus a full exhaustive
//! kernel-matrix cell, the fault campaign's states/sec (torn + media +
//! nested enabled, with its own thread scaling), and the `lp-lint`
//! dataflow engine's whole-tree throughput (lines/sec — the CI gate
//! budgets its wall time).
//!
//! Measurement protocol (fixed, not adaptive, so runs are comparable
//! across commits): every cell uses a fixed workload size, runs one
//! untimed warmup pass, then three timed repetitions, and reports the
//! median wall time (min/max recorded as spread). Prints the JSON
//! (hand-rolled; the workspace carries no serde) with the host's logical
//! CPU count. Without `--check`, it also writes it to
//! `results/BENCH_10.json` and refreshes the perf section of
//! `results/bench_summary.txt`. Run with `--quick` for the CI-sized
//! workload.
//!
//! Regression gate: `--check PATH` compares the fresh measurements
//! against an older baseline JSON (BENCH_7/8/9/10 format) and exits
//! nonzero when a matched entry rots past tolerance. A check writes
//! nothing under `results/`: refreshing the committed baseline stays a
//! deliberate run without `--check`. Documented
//! tolerances (generous, because CI runners are shared and the host may
//! have a single core): a best-of-reps rate (units / `wall_min`, the
//! noise-robust statistic for millisecond-scale cells) must stay above
//! `0.5×` its baseline (`0.6×` for the `sim/` cells, which are
//! single-threaded and steadier), and `speedup_vs_1` must not drop more
//! than `0.5` absolute below its baseline. Thread-scaling rows carry the
//! measuring host's `host_cpus`; when the baseline was taken on a host
//! with a different CPU count, the speedup comparison is annotated and
//! skipped rather than failed (not like-for-like). Entries present on
//! only one side are reported but never fail the gate (BENCH_7 lacked
//! `speedup_vs_1` on fault-campaign rows and had no exhaustive cell).
//!
//! Cycle-invariance gate: the `sim/` cells record `sim_cycles` and
//! `memops`; when fresh and baseline runs used the same workload size
//! (same `quick` flag), both must match the baseline *exactly* — the
//! simulator's timing model is pinned, so any drift is a semantic
//! regression, not noise. The `sim/` cells are also held to a wall-time
//! budget per rep so a pathological slowdown fails fast even while the
//! rate ratio is still within tolerance.
//!
//! Run: `cargo run --release -p lp-bench --bin perf_baseline
//!       [--quick] [--check results/BENCH_9.json]`.

#![forbid(unsafe_code)]

use lp_core::scheme::Scheme;
use lp_crashmc::cases::all_kernel_cases;
use lp_crashmc::mc::{check_cases, Budget, BudgetMode};
use lp_kernels::driver::{run_kernel, KernelId, Scale};
use lp_sim::config::MachineConfig;
use lp_sim::fault::FaultConfig;

/// Untimed passes before measurement (warms caches and allocators).
const WARMUP_REPS: usize = 1;
/// Timed repetitions per cell; the median is reported.
const TIMED_REPS: usize = 3;

/// A fresh rate must stay above this fraction of its baseline rate.
const RATE_TOLERANCE: f64 = 0.5;
/// The `sim/` cells run single-threaded with no exploration randomness,
/// so they are steadier than the crashmc cells; hold them tighter.
const SIM_RATE_TOLERANCE: f64 = 0.6;
/// `speedup_vs_1` may drop at most this much (absolute) below baseline.
const SPEEDUP_TOLERANCE: f64 = 0.5;
/// Per-rep wall-time budget for one `sim/` cell (seconds): quick cells
/// finish in ~1 ms and full cells well under this; blowing the budget
/// means the hot path degenerated, regardless of the rate ratio.
fn sim_wall_budget(quick: bool) -> f64 {
    if quick {
        0.25
    } else {
        60.0
    }
}

/// Logical CPUs on the measuring host — recorded so `--check` can tell
/// whether thread-scaling rows are like-for-like comparable.
fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// One emitted measurement.
struct Entry {
    name: String,
    wall_secs: f64,
    rate: f64,
    rate_unit: &'static str,
    detail: Vec<(String, f64)>,
}

impl Entry {
    fn detail_value(&self, key: &str) -> Option<f64> {
        self.detail.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// Run `f` under the fixed protocol: `WARMUP_REPS` untimed passes, then
/// `TIMED_REPS` timed ones. Returns `(median, min, max, last result)`.
fn measure<T>(mut f: impl FnMut() -> T) -> (f64, f64, f64, T) {
    for _ in 0..WARMUP_REPS {
        f();
    }
    let mut walls = Vec::with_capacity(TIMED_REPS);
    let mut last = None;
    for _ in 0..TIMED_REPS {
        let t0 = std::time::Instant::now();
        last = Some(f());
        walls.push(t0.elapsed().as_secs_f64());
    }
    walls.sort_by(f64::total_cmp);
    (
        walls[TIMED_REPS / 2],
        walls[0],
        walls[TIMED_REPS - 1],
        last.expect("TIMED_REPS > 0"),
    )
}

fn render_json(quick: bool, entries: &[Entry]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"BENCH_10\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"host_cpus\": {},\n", host_cpus()));
    out.push_str(&format!(
        "  \"protocol\": {{\"warmup_reps\": {WARMUP_REPS}, \"timed_reps\": {TIMED_REPS}, \"statistic\": \"median\"}},\n"
    ));
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"name\": \"{}\",\n",
            lp_sim::json::escape(&e.name)
        ));
        out.push_str(&format!("      \"wall_secs\": {:.6},\n", e.wall_secs));
        out.push_str(&format!("      \"rate\": {:.3},\n", e.rate));
        out.push_str(&format!("      \"rate_unit\": \"{}\"", e.rate_unit));
        if !e.detail.is_empty() {
            out.push_str(",\n");
            let fields: Vec<String> = e
                .detail
                .iter()
                .map(|(k, v)| format!("      \"{}\": {:.6}", lp_sim::json::escape(k), v))
                .collect();
            out.push_str(&fields.join(",\n"));
        }
        out.push('\n');
        out.push_str(if i + 1 < entries.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

// ----------------------------------------------------------------------
// Baseline comparison (--check)
// ----------------------------------------------------------------------

/// One entry parsed back out of a baseline JSON (BENCH_7/8/9 format).
struct BaselineEntry {
    name: String,
    best_rate: f64,
    speedup_vs_1: Option<f64>,
    sim_cycles: Option<f64>,
    memops: Option<f64>,
    host_cpus: Option<f64>,
}

/// Extract the numeric value following `"key":` in `chunk`, if present.
fn json_number(chunk: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let at = chunk.find(&tag)? + tag.len();
    let rest = chunk[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Best-of-reps rate: the reported rate rescaled from the median wall to
/// the minimum wall. The gate compares best-case rates because the
/// quick sim cells finish in ~1 ms, where the median soaks up scheduler
/// noise that the minimum shrugs off.
fn best_rate(rate: f64, wall_secs: Option<f64>, wall_min: Option<f64>) -> f64 {
    match (wall_secs, wall_min) {
        (Some(w), Some(m)) if m > 0.0 => rate * (w / m),
        _ => rate,
    }
}

/// Parse the baseline's entry list. Hand-rolled to match the hand-rolled
/// writer: entries are `{...}` objects inside the `"entries"` array, one
/// `"name"` each; unknown fields are ignored.
fn parse_baseline(json: &str) -> Vec<BaselineEntry> {
    let mut out = Vec::new();
    for chunk in json.split("\"name\":").skip(1) {
        let name = match chunk.split('"').nth(1) {
            Some(n) => n.to_string(),
            None => continue,
        };
        // Stop at the entry's closing brace so a field from the next
        // entry is never attributed to this one.
        let scope = chunk.split('}').next().unwrap_or(chunk);
        let Some(rate) = json_number(scope, "rate") else {
            continue;
        };
        out.push(BaselineEntry {
            name,
            best_rate: best_rate(
                rate,
                json_number(scope, "wall_secs"),
                json_number(scope, "wall_min"),
            ),
            speedup_vs_1: json_number(scope, "speedup_vs_1"),
            sim_cycles: json_number(scope, "sim_cycles"),
            memops: json_number(scope, "memops"),
            host_cpus: json_number(scope, "host_cpus"),
        });
    }
    out
}

/// The baseline's top-level `quick` flag (absent in BENCH_7 ⇒ `None`).
fn parse_baseline_quick(json: &str) -> Option<bool> {
    let head = json.split("\"entries\"").next().unwrap_or(json);
    if head.contains("\"quick\": true") {
        Some(true)
    } else if head.contains("\"quick\": false") {
        Some(false)
    } else {
        None
    }
}

/// Compare fresh entries against a stored baseline. Returns the number of
/// regressions past tolerance (0 ⇒ gate passes).
fn check_against(baseline_path: &str, quick: bool, entries: &[Entry]) -> usize {
    let json = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("--check: cannot read {baseline_path}: {e}"));
    let baseline = parse_baseline(&json);
    assert!(
        !baseline.is_empty(),
        "--check: no entries found in {baseline_path}"
    );
    // The cycle gate only makes sense when both runs simulated the same
    // workload; a BENCH_7-era baseline without the flag is treated as
    // incomparable rather than guessed at.
    let cycles_comparable = parse_baseline_quick(&json) == Some(quick);
    let mut regressions = 0usize;
    eprintln!("\n== regression check vs {baseline_path} ==");
    for e in entries {
        let Some(b) = baseline.iter().find(|b| b.name == e.name) else {
            eprintln!("  {:<44} new entry (no baseline) — informational", e.name);
            continue;
        };
        let is_sim = e.name.starts_with("sim/");
        let fresh = best_rate(e.rate, Some(e.wall_secs), e.detail_value("wall_min"));
        let ratio = fresh / b.best_rate.max(1e-9);
        let tolerance = if is_sim {
            SIM_RATE_TOLERANCE
        } else {
            RATE_TOLERANCE
        };
        let rate_ok = ratio >= tolerance;
        let mut line = format!(
            "  {:<44} best rate {:>12.1} vs {:>12.1}  ({:.2}x{})",
            e.name,
            fresh,
            b.best_rate,
            ratio,
            if rate_ok { "" } else { " REGRESSION" },
        );
        if !rate_ok {
            regressions += 1;
        }
        if is_sim {
            // Cycle invariance: the simulated timing model is pinned, so
            // the cell's cycle and memop counts must match the baseline
            // exactly (same workload size only).
            if cycles_comparable {
                for (key, then) in [("sim_cycles", b.sim_cycles), ("memops", b.memops)] {
                    if let (Some(now), Some(then)) = (e.detail_value(key), then) {
                        if now == then {
                            continue;
                        }
                        line.push_str(&format!("  {key} {now} vs {then} CYCLE-DRIFT"));
                        regressions += 1;
                    }
                }
            } else {
                line.push_str("  (cycle gate skipped: baseline workload size differs)");
            }
            let budget = sim_wall_budget(quick);
            let wall = e.detail_value("wall_min").unwrap_or(e.wall_secs);
            if wall > budget {
                line.push_str(&format!(
                    "  wall_min {wall:.3}s exceeds {budget:.2}s budget REGRESSION"
                ));
                regressions += 1;
            }
        }
        if let (Some(now), Some(then)) = (e.detail_value("speedup_vs_1"), b.speedup_vs_1) {
            let like_for_like = match (e.detail_value("host_cpus"), b.host_cpus) {
                (Some(a), Some(c)) => a == c,
                _ => true, // older baselines carry no host_cpus; keep the gate
            };
            if like_for_like {
                let speedup_ok = now >= then - SPEEDUP_TOLERANCE;
                line.push_str(&format!(
                    "  speedup {now:.2} vs {then:.2}{}",
                    if speedup_ok { "" } else { " REGRESSION" }
                ));
                if !speedup_ok {
                    regressions += 1;
                }
            } else {
                line.push_str(&format!(
                    "  speedup {now:.2} vs {then:.2} (host_cpus differ; informational)"
                ));
            }
        }
        eprintln!("{line}");
    }
    for b in &baseline {
        if !entries.iter().any(|e| e.name == b.name) {
            eprintln!("  {:<44} dropped (was in baseline) — informational", b.name);
        }
    }
    eprintln!(
        "tolerances: best rate >= {RATE_TOLERANCE}x baseline ({SIM_RATE_TOLERANCE}x for sim/ cells), \
         speedup_vs_1 >= baseline - {SPEEDUP_TOLERANCE}, sim cycles/memops exact, \
         sim wall_min <= {:.2}s; {regressions} regression(s)",
        sim_wall_budget(quick)
    );
    regressions
}

// ----------------------------------------------------------------------
// bench_summary.txt refresh
// ----------------------------------------------------------------------

const SUMMARY_BEGIN: &str = "== perf_baseline (generated; do not hand-edit this section) ==";

/// Rewrite the perf section of `results/bench_summary.txt`: everything up
/// to the marker is preserved (hand-collected `cargo bench` output), the
/// marker and everything after it is regenerated from this run — so the
/// summary always carries the current rates *including* the
/// fault-campaign `speedup_vs_1` rows the stale file lacked.
fn refresh_summary(path: &std::path::Path, quick: bool, entries: &[Entry]) {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let head = existing
        .split(SUMMARY_BEGIN)
        .next()
        .unwrap_or("")
        .trim_end();
    let mut out = String::new();
    if !head.is_empty() {
        out.push_str(head);
        out.push_str("\n\n");
    }
    out.push_str(SUMMARY_BEGIN);
    out.push('\n');
    out.push_str(&format!(
        "source: perf_baseline (BENCH_10.json), quick={quick}, median of {TIMED_REPS} reps, host_cpus={}\n\n",
        host_cpus()
    ));
    out.push_str(&format!(
        "{:<44} {:>14} {:>18} {:>12} {:>12}\n",
        "entry", "wall_secs", "rate", "speedup_vs_1", "dedup_rate"
    ));
    for e in entries {
        let speedup = e
            .detail_value("speedup_vs_1")
            .map_or_else(|| "-".into(), |v| format!("{v:.2}x"));
        let dedup = e
            .detail_value("dedup_rate")
            .map_or_else(|| "-".into(), |v| format!("{:.1}%", v * 100.0));
        out.push_str(&format!(
            "{:<44} {:>14.3} {:>12.1} {:>5} {:>12} {:>12}\n",
            e.name, e.wall_secs, e.rate, e.rate_unit, speedup, dedup
        ));
    }
    std::fs::write(path, out).expect("write bench_summary.txt");
}

fn parse_args() -> (bool, Option<String>) {
    let (mut quick, mut check) = (false, None);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--check" => {
                check = Some(args.next().expect("--check needs a baseline JSON path"));
            }
            "--help" | "-h" => {
                println!("usage: perf_baseline [--quick] [--check BASELINE.json]");
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}; try --help"),
        }
    }
    (quick, check)
}

/// Push one crashmc measurement (shared by the clean, faulted, and
/// exhaustive cells).
fn crashmc_entry(
    entries: &mut Vec<Entry>,
    name: String,
    cases: &[lp_crashmc::mc::CheckCase],
    budget: &Budget,
    threads: usize,
    wall_at_1: f64,
) -> f64 {
    let (wall, wall_min, wall_max, reports) = measure(|| check_cases(cases, budget, 42, threads));
    let states: u64 = reports.iter().map(|r| r.states_checked).sum();
    let dedup_hits: u64 = reports.iter().map(|r| r.dedup_hits).sum();
    let replay_saved: u64 = reports.iter().map(|r| r.replay_saved_ops).sum();
    assert!(
        reports.iter().all(lp_crashmc::mc::McReport::clean),
        "clean kernel matrix must stay clean"
    );
    let base = if wall_at_1 > 0.0 { wall_at_1 } else { wall };
    let mut detail = vec![
        ("states".into(), states as f64),
        ("speedup_vs_1".into(), base / wall.max(1e-9)),
        ("host_cpus".into(), host_cpus() as f64),
        ("dedup_hits".into(), dedup_hits as f64),
        (
            "dedup_rate".into(),
            dedup_hits as f64 / (states.max(1)) as f64,
        ),
        ("replay_saved_ops".into(), replay_saved as f64),
        ("wall_min".into(), wall_min),
        ("wall_max".into(), wall_max),
    ];
    if budget.faults.any() {
        let torn: u64 = reports.iter().map(|r| r.tally.torn_states).sum();
        let poisons: u64 = reports.iter().map(|r| r.tally.poisons).sum();
        let nested: u64 = reports.iter().map(|r| r.tally.nested_crashes).sum();
        detail.push(("torn_states".into(), torn as f64));
        detail.push(("poisons".into(), poisons as f64));
        detail.push(("nested_crashes".into(), nested as f64));
    }
    entries.push(Entry {
        name,
        wall_secs: wall,
        rate: states as f64 / wall.max(1e-9),
        rate_unit: "states_per_sec",
        detail,
    });
    wall
}

fn main() {
    let (quick, check) = parse_args();
    let mut entries = Vec::new();

    // --- Simulator throughput: one representative bench cell per scheme.
    let scale = if quick { Scale::Test } else { Scale::Bench };
    let cfg = MachineConfig::default().with_nvmm_bytes(512 << 20);
    for scheme in [
        Scheme::Base,
        Scheme::lazy_default(),
        Scheme::lazy_parity_default(),
        Scheme::Eager,
    ] {
        eprintln!("perf_baseline: sim {scheme}...");
        let (wall, wall_min, wall_max, run) =
            measure(|| run_kernel(KernelId::Tmm, scale, &cfg, scheme));
        assert!(run.verified, "tmm {scheme}");
        let t = run.stats.core_totals();
        let memops = t.loads + t.stores + t.flushes + t.fences;
        entries.push(Entry {
            name: format!("sim/tmm/{scheme}"),
            wall_secs: wall,
            rate: memops as f64 / wall.max(1e-9),
            rate_unit: "memops_per_sec",
            detail: vec![
                ("memops".into(), memops as f64),
                ("sim_cycles".into(), run.stats.exec_cycles() as f64),
                ("wall_min".into(), wall_min),
                ("wall_max".into(), wall_max),
            ],
        });
    }

    // --- Crashmc throughput and thread scaling over the kernel matrix.
    let budget = if quick {
        Budget {
            mode: BudgetMode::Smoke,
            k: 3,
            faults: FaultConfig::none(),
            dedup: true,
        }
    } else {
        Budget {
            mode: BudgetMode::Sampled(24),
            k: 4,
            faults: FaultConfig::none(),
            dedup: true,
        }
    };
    let cases = all_kernel_cases(Scale::Micro);
    // Recovery legitimately panics on some corrupt images; keep the
    // default hook from spamming the run.
    std::panic::set_hook(Box::new(|_| {}));
    let mut wall_at_1 = 0.0f64;
    for threads in [1usize, 2, 4, 8] {
        eprintln!("perf_baseline: crashmc @ {threads} thread(s)...");
        let wall = crashmc_entry(
            &mut entries,
            format!("crashmc/kernel-matrix/threads-{threads}"),
            &cases,
            &budget,
            threads,
            wall_at_1,
        );
        if threads == 1 {
            wall_at_1 = wall;
        }
    }

    // --- Full exhaustive budget over the same matrix: every crash point,
    // the snapshot-resume + dedup engine's headline cell (the sampled
    // cells above keep it comparable with the BENCH_7 lineage).
    let exhaustive = Budget {
        mode: BudgetMode::Exhaustive,
        ..budget
    };
    eprintln!("perf_baseline: crashmc exhaustive...");
    crashmc_entry(
        &mut entries,
        "crashmc/kernel-matrix-exhaustive/threads-8".into(),
        &cases,
        &exhaustive,
        8,
        0.0,
    );

    // --- Fault-campaign throughput: the same matrix with every fault
    // class armed, so the injection layer's overhead is a measured ratio
    // (faulted states/sec vs the clean matrix above), not a guess.
    let faulted = Budget {
        faults: FaultConfig::parse("torn,media,nested").expect("fault list"),
        ..budget
    };
    let mut fault_wall_at_1 = 0.0f64;
    for threads in [1usize, 4] {
        eprintln!("perf_baseline: fault campaign @ {threads} thread(s)...");
        let wall = crashmc_entry(
            &mut entries,
            format!("crashmc/fault-campaign/threads-{threads}"),
            &cases,
            &faulted,
            threads,
            fault_wall_at_1,
        );
        if threads == 1 {
            fault_wall_at_1 = wall;
        }
    }
    let _ = std::panic::take_hook();

    // --- Lint throughput over the real tree. The CI gate budgets the
    // fixpoint engine's wall time; this records the matching lines/sec
    // so a slow regression shows up as a rate drop, not a flaky timeout.
    eprintln!("perf_baseline: lp-lint tree...");
    let root = std::path::Path::new(".");
    let targets = lp_lint::default_targets(root).expect("enumerate lint surface");
    let lines: usize = targets
        .iter()
        .map(|p| std::fs::read_to_string(p).map_or(0, |s| s.lines().count()))
        .sum();
    let (wall, wall_min, wall_max, report) =
        measure(|| lp_lint::lint_paths(&targets, root, &lp_lint::LintConfig::default()));
    assert!(
        report.expect("lint tree").is_clean(),
        "clean tree must lint clean"
    );
    entries.push(Entry {
        name: "lint/tree".into(),
        wall_secs: wall,
        rate: lines as f64 / wall.max(1e-9),
        rate_unit: "lines_per_sec",
        detail: vec![
            ("lines".into(), lines as f64),
            ("files".into(), targets.len() as f64),
            ("wall_min".into(), wall_min),
            ("wall_max".into(), wall_max),
        ],
    });

    let json = render_json(quick, &entries);
    println!("{json}");
    if let Some(baseline) = check {
        if check_against(&baseline, quick, &entries) > 0 {
            std::process::exit(1);
        }
        return;
    }
    let path = std::path::Path::new("results").join("BENCH_10.json");
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write(&path, &json).expect("write BENCH_10.json");
    eprintln!("perf_baseline: wrote {}", path.display());
    refresh_summary(
        &std::path::Path::new("results").join("bench_summary.txt"),
        quick,
        &entries,
    );
    eprintln!("perf_baseline: refreshed results/bench_summary.txt");
}
