//! `lp-crashmc` — prove recovery correct over every reachable crash
//! state, or print the states where it is not.

use lp_core::checksum::ChecksumKind;
use lp_core::scheme::Scheme;
use lp_crashmc::cases::{all_kernel_cases, kernel_case, CLEAN_SCHEMES};
use lp_crashmc::mc::{check_cases, Budget, BudgetMode, CheckCase, McReport};
use lp_crashmc::rigs::{self, Rig};
use lp_kernels::driver::{KernelId, Scale};
use lp_sim::fault::FaultConfig;
use lp_sim::par::available_threads;

const USAGE: &str = "\
lp-crashmc: exhaustive crash-state model checker for the persistency schemes

USAGE:
  lp-crashmc [OPTIONS]                   check the Micro-scale kernels x {LP, EP, WAL}
  lp-crashmc --mutations [OPTIONS]       check the mutation-rig registry, each rig
                                         under its own fault class (each must
                                         yield >= 1 corrupt/stuck state, or stay
                                         clean with failed repairs where the
                                         runtime masks the bug)

OPTIONS:
  --budget MODE     exhaustive | sampled | smoke      [default: sampled]
  --points N        crash points per case under sampled [default: 48]
  --k K             census bound: up to 2^K states per crash point [default: 4]
  --seed S          seed for every sampling decision  [default: 42]
  --faults LIST     comma-separated fault classes injected on top of the
                    clean ADR crash model: torn, media, media-burst, nested
                    (e.g. --faults torn,media,nested)  [default: none]
                    media-burst widens each poison draw to two adjacent
                    lines: single-line poisons are repairable from parity
                    under lazy-parity, bursts must escalate to recompute.
                    --mutations ignores it: each rig runs under its own
  --nested-bound K  crashes injected per recovery before the final
                    crash-free attempt (with nested)  [default: 2]
  --kernel NAME     tmm | cholesky | conv2d | gauss | fft | all [default: all]
  --scheme NAME     lazy | lazy-parity | eager | wal | all [default: all]
  --threads N       host worker threads for the exploration
                    [default: the machine's available parallelism]
                    Reports (stdout and JSON) are byte-identical at any
                    thread count.
  --dedup on|off    skip recovery on crash states whose dedup key was
                    already judged at the same point  [default: on]
                    Counting is unaffected: reports are byte-identical
                    either way, off only costs wall-clock.
  --report PATH     write a JSON campaign report (states, verdicts, and
                    per-class fault tallies) to PATH
  --list            list the cases that would run, then exit
  --help            this text

EXIT STATUS:
  0  all explored states recovered consistently (or, with --mutations,
     every rig was caught); 1 otherwise.";

struct Args {
    budget: Budget,
    seed: u64,
    kernel: Option<KernelId>,
    scheme: Option<Scheme>,
    threads: usize,
    mutations: bool,
    report: Option<String>,
    list: bool,
}

fn parse_args() -> Args {
    let mut budget_mode = None;
    let mut points = 48usize;
    let mut nested_bound: Option<u32> = None;
    let mut out = Args {
        budget: Budget {
            mode: BudgetMode::Sampled(48),
            k: 4,
            faults: FaultConfig::none(),
            dedup: true,
        },
        seed: 42,
        kernel: None,
        scheme: None,
        threads: available_threads(),
        mutations: false,
        report: None,
        list: false,
    };
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().unwrap_or_else(|| {
            eprintln!("{flag} needs a value\n\n{USAGE}");
            std::process::exit(2);
        })
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--budget" => {
                budget_mode = Some(match value(&mut args, "--budget").as_str() {
                    "exhaustive" => BudgetMode::Exhaustive,
                    "sampled" => BudgetMode::Sampled(points),
                    "smoke" => BudgetMode::Smoke,
                    other => {
                        eprintln!("unknown budget {other:?}\n\n{USAGE}");
                        std::process::exit(2);
                    }
                });
            }
            "--points" => {
                points = value(&mut args, "--points").parse().unwrap_or_else(|_| {
                    eprintln!("--points needs a number");
                    std::process::exit(2);
                });
            }
            "--k" => {
                out.budget.k = value(&mut args, "--k").parse().unwrap_or_else(|_| {
                    eprintln!("--k needs a number");
                    std::process::exit(2);
                });
            }
            "--seed" => {
                out.seed = value(&mut args, "--seed").parse().unwrap_or_else(|_| {
                    eprintln!("--seed needs a number");
                    std::process::exit(2);
                });
            }
            "--kernel" => {
                out.kernel = match value(&mut args, "--kernel").as_str() {
                    "all" => None,
                    "tmm" => Some(KernelId::Tmm),
                    "cholesky" => Some(KernelId::Cholesky),
                    "conv2d" => Some(KernelId::Conv2d),
                    "gauss" => Some(KernelId::Gauss),
                    "fft" => Some(KernelId::Fft),
                    other => {
                        eprintln!("unknown kernel {other:?}\n\n{USAGE}");
                        std::process::exit(2);
                    }
                };
            }
            "--scheme" => {
                out.scheme = match value(&mut args, "--scheme").as_str() {
                    "all" => None,
                    "lazy" => Some(Scheme::Lazy(ChecksumKind::Modular)),
                    "lazy-parity" => Some(Scheme::LazyParity(ChecksumKind::Crc32)),
                    "eager" => Some(Scheme::Eager),
                    "wal" => Some(Scheme::Wal),
                    other => {
                        eprintln!("unknown scheme {other:?}\n\n{USAGE}");
                        std::process::exit(2);
                    }
                };
            }
            "--threads" => {
                out.threads = value(&mut args, "--threads").parse().unwrap_or_else(|_| {
                    eprintln!("--threads needs a number");
                    std::process::exit(2);
                });
                if out.threads == 0 {
                    eprintln!("--threads must be at least 1");
                    std::process::exit(2);
                }
            }
            "--faults" => {
                out.budget.faults = FaultConfig::parse(&value(&mut args, "--faults"))
                    .unwrap_or_else(|e| {
                        eprintln!("{e}\n\n{USAGE}");
                        std::process::exit(2);
                    });
            }
            "--nested-bound" => {
                nested_bound = Some(value(&mut args, "--nested-bound").parse().unwrap_or_else(
                    |_| {
                        eprintln!("--nested-bound needs a number");
                        std::process::exit(2);
                    },
                ));
            }
            "--dedup" => {
                out.budget.dedup = match value(&mut args, "--dedup").as_str() {
                    "on" => true,
                    "off" => false,
                    other => {
                        eprintln!("--dedup takes on|off, got {other:?}\n\n{USAGE}");
                        std::process::exit(2);
                    }
                };
            }
            "--report" => out.report = Some(value(&mut args, "--report")),
            "--mutations" => out.mutations = true,
            "--list" => out.list = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other:?}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if let Some(mode) = budget_mode {
        out.budget.mode = if let BudgetMode::Sampled(_) = mode {
            BudgetMode::Sampled(points)
        } else {
            mode
        };
    } else {
        out.budget.mode = BudgetMode::Sampled(points);
    }
    if let Some(b) = nested_bound {
        out.budget.faults.nested_bound = b;
    }
    out
}

fn select_cases(args: &Args) -> Vec<CheckCase> {
    match (args.kernel, args.scheme) {
        (None, None) => all_kernel_cases(Scale::Micro),
        (k, s) => {
            let kernels: Vec<_> = k.map_or_else(|| KernelId::ALL.to_vec(), |k| vec![k]);
            let schemes: Vec<_> = s.map_or_else(|| CLEAN_SCHEMES.to_vec(), |s| vec![s]);
            let mut out = Vec::new();
            for &kernel in &kernels {
                for &scheme in &schemes {
                    out.push(kernel_case(kernel, scheme, Scale::Micro));
                }
            }
            out
        }
    }
}

/// Print `r` with its verdict; returns whether it passed. A kernel case
/// passes clean; a rig passes when its census caught it — FLAGGED, or
/// CLEAN for a rig whose bug the runtime masks.
fn print_report(r: &McReport, rig: Option<&Rig>) -> bool {
    let (verdict, ok) = match rig {
        None if r.clean() => ("CLEAN", true),
        None => ("FAIL", false),
        Some(rig) => match (rig.masked, rig.caught(r)) {
            (false, true) => ("FLAGGED", true),
            (false, false) => ("MISSED", false),
            (true, true) => ("CLEAN", true),
            (true, false) => ("FAIL", false),
        },
    };
    println!("{}  {}", r.summary_line(), verdict);
    if r.faults != "none" {
        println!("{}", r.tally.summary_line());
    }
    for ex in &r.examples {
        println!(
            "    {:?} at op {} (census {}, subset {})",
            ex.class, ex.op, ex.census, ex.subset
        );
    }
    ok
}

fn tally_json(t: &lp_crashmc::mc::FaultTally) -> String {
    format!(
        concat!(
            "{{\"torn_states\":{},\"torn_words_dropped\":{},",
            "\"flips\":{},\"flips_detected\":{},\"flips_benign\":{},\"flips_missed\":{},",
            "\"poisons\":{},\"bursts\":{},\"poisons_detected\":{},\"poisons_scrubbed\":{},",
            "\"repaired_lines\":{},\"repair_failures\":{},\"escalations\":{},",
            "\"nested_crashes\":{},\"retries\":{},\"retry_exhausted\":{}}}"
        ),
        t.torn_states,
        t.torn_words_dropped,
        t.flips,
        t.flips_detected,
        t.flips_benign,
        t.flips_missed,
        t.poisons,
        t.bursts,
        t.poisons_detected,
        t.poisons_scrubbed,
        t.repaired_lines,
        t.repair_failures,
        t.escalations,
        t.nested_crashes,
        t.retries,
        t.retry_exhausted,
    )
}

/// Serialize the campaign deterministically (no timing, no thread count,
/// so the file is byte-identical at any parallelism).
fn campaign_json(reports: &[McReport], seed: u64) -> String {
    let mut cases = Vec::new();
    let mut total = lp_crashmc::mc::FaultTally::default();
    let (mut states, mut consistent, mut corrupt, mut stuck) = (0u64, 0u64, 0u64, 0u64);
    let (mut dedup_hits, mut replay_saved) = (0u64, 0u64);
    for r in reports {
        total.merge(&r.tally);
        states += r.states_checked;
        consistent += r.consistent;
        corrupt += r.corrupt;
        stuck += r.stuck;
        dedup_hits += r.dedup_hits;
        replay_saved += r.replay_saved_ops;
        cases.push(format!(
            concat!(
                "    {{\"case\":\"{}\",\"mode\":\"{}\",\"k\":{},\"faults\":\"{}\",",
                "\"points_total\":{},\"points_visited\":{},\"max_census\":{},",
                "\"states\":{},\"consistent\":{},\"corrupt\":{},\"stuck\":{},",
                "\"dedup_hits\":{},\"dedup_rate\":{:.4},\"replay_saved_ops\":{},",
                "\"tally\":{}}}"
            ),
            lp_sim::json::escape(&r.case_name),
            lp_sim::json::escape(&r.mode),
            r.k,
            lp_sim::json::escape(&r.faults),
            r.points_total,
            r.points.len(),
            r.max_census,
            r.states_checked,
            r.consistent,
            r.corrupt,
            r.stuck,
            r.dedup_hits,
            r.dedup_hits as f64 / (r.states_checked.max(1)) as f64,
            r.replay_saved_ops,
            tally_json(&r.tally),
        ));
    }
    format!(
        concat!(
            "{{\n  \"tool\": \"lp-crashmc\",\n  \"seed\": {},\n  \"cases\": [\n{}\n  ],\n",
            "  \"total\": {{\"states\":{},\"consistent\":{},\"corrupt\":{},\"stuck\":{},",
            "\"dedup_hits\":{},\"dedup_rate\":{:.4},\"replay_saved_ops\":{},",
            "\"tally\":{}}}\n}}\n"
        ),
        seed,
        cases.join(",\n"),
        states,
        consistent,
        corrupt,
        stuck,
        dedup_hits,
        dedup_hits as f64 / (states.max(1)) as f64,
        replay_saved,
        tally_json(&total),
    )
}

fn main() {
    let args = parse_args();
    let (rigs, cases) = if args.mutations {
        (rigs::all(), Vec::new())
    } else {
        (Vec::new(), select_cases(&args))
    };
    if args.list {
        for r in &rigs {
            println!("{}  [--faults {}]", r.case.name, r.faults);
        }
        for c in &cases {
            println!("{}", c.name);
        }
        return;
    }
    println!(
        "lp-crashmc: {} case(s), budget {:?}, k {}, seed {}",
        rigs.len() + cases.len(),
        args.budget.mode,
        args.budget.k,
        args.seed
    );

    // Recovery legitimately panics on some corrupt images ("stuck"
    // states); the checker catches those unwinds, so keep the default
    // hook from spamming the report.
    std::panic::set_hook(Box::new(|_| {}));
    let started = std::time::Instant::now();
    let reports: Vec<McReport> = if args.mutations {
        // Each rig runs under the fault class it was written to need.
        rigs.iter()
            .flat_map(|r| {
                let budget = r.budget(&args.budget);
                check_cases(
                    std::slice::from_ref(&r.case),
                    &budget,
                    args.seed,
                    args.threads,
                )
            })
            .collect()
    } else {
        check_cases(&cases, &args.budget, args.seed, args.threads)
    };
    let elapsed = started.elapsed();
    let _ = std::panic::take_hook();

    // Timing goes to stderr so stdout stays byte-identical across thread
    // counts (the determinism contract the tests pin down).
    let explored: u64 = reports.iter().map(|r| r.states_checked).sum();
    eprintln!(
        "lp-crashmc: {} states in {:.2}s on {} thread(s) ({:.0} states/sec)",
        explored,
        elapsed.as_secs_f64(),
        args.threads,
        explored as f64 / elapsed.as_secs_f64().max(1e-9),
    );

    let mut passed = 0;
    for (i, r) in reports.iter().enumerate() {
        passed += usize::from(print_report(r, rigs.get(i)));
    }
    if args.mutations {
        println!(
            "{}/{} rigs caught across {} crash states",
            passed,
            reports.len(),
            explored
        );
    } else {
        println!(
            "{} crash states explored, {} corrupt, {} stuck",
            explored,
            reports.iter().map(|r| r.corrupt).sum::<u64>(),
            reports.iter().map(|r| r.stuck).sum::<u64>(),
        );
    }
    if let Some(path) = &args.report {
        write_report(path, &campaign_json(&reports, args.seed));
    }
    if passed < reports.len() {
        std::process::exit(1);
    }
}

/// Write the JSON campaign report, creating parent directories.
fn write_report(path: &str, json: &str) {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    match std::fs::write(path, json) {
        Ok(()) => eprintln!("lp-crashmc: campaign report written to {path}"),
        Err(e) => {
            eprintln!("lp-crashmc: cannot write {path}: {e}");
            std::process::exit(2);
        }
    }
}
