//! Figure 11: additional NVMM writes (vs. base tmm) as a function of the
//! periodic hardware cleaner's interval, expressed as a fraction of total
//! execution time, for Lazy Persistency — with EagerRecompute's write
//! overhead as the reference line.
//!
//! Paper reference: even a 0.08%-of-runtime cleaning interval costs +32%
//! writes, still below EagerRecompute's +36%; a 33% interval costs < +2%.
//!
//! Run: `cargo run --release -p lp-bench --bin fig11 [--quick]`.

use lp_bench::{print_table, run_cells, BenchArgs};
use lp_core::scheme::Scheme;
use lp_kernels::driver;
use lp_kernels::tmm::{Tmm, TmmParams};
use lp_sim::cleaner::CleanerConfig;

fn main() {
    let args = BenchArgs::parse();
    let mut params = if args.quick {
        TmmParams::bench_default()
    } else {
        TmmParams::paper_default()
    };
    if let Some(t) = args.threads {
        params.threads = t;
    }
    let cfg = args.base_config();

    // Reference points: base and EP write counts (plus the no-cleaner LP
    // run), and base runtime to express cleaner intervals as fractions of
    // execution time. The cleaner sweep depends on the base cycle count,
    // so it fans out in a second wave.
    eprintln!("fig11: measuring base, EP & LP references...");
    let jobs = args.host_jobs();
    let ref_schemes = [Scheme::Base, Scheme::Eager, Scheme::lazy_default()];
    let mut refs = run_cells(jobs, &ref_schemes, |&scheme| {
        let run = driver::run::<Tmm>(&cfg, params, scheme);
        assert!(run.verified, "{scheme}");
        run
    });
    let lp_plain = refs.pop().expect("LP reference");
    let ep = refs.pop().expect("EP reference");
    let base = refs.pop().expect("base reference");
    let base_cycles = base.cycles();
    let base_writes = base.writes().max(1);

    // Sweep the interval as a fraction of base execution time, smallest
    // (most aggressive cleaning) first, mirroring the figure's x-axis.
    let fractions = [0.0008f64, 0.0033, 0.01, 0.033, 0.10, 0.33];
    let sweep = run_cells(jobs, &fractions, |&frac| {
        let interval = ((base_cycles as f64 * frac) as u64).max(1);
        let cfg_clean = cfg
            .clone()
            .with_cleaner(CleanerConfig::every_cycles(interval));
        let run = driver::run::<Tmm>(&cfg_clean, params, Scheme::lazy_default());
        assert!(run.verified, "fraction {frac}");
        eprintln!("  fraction {frac}: done");
        (interval, run)
    });
    let mut rows = vec![vec![
        "LP, no cleaner".to_string(),
        "-".into(),
        lp_bench::overhead_pct(lp_plain.writes(), base_writes),
        "-".into(),
    ]];
    for (frac, (interval, run)) in fractions.iter().zip(&sweep) {
        rows.push(vec![
            format!("LP + cleaner @ {:.2}%", frac * 100.0),
            interval.to_string(),
            lp_bench::overhead_pct(run.writes(), base_writes),
            run.stats.mem.nvmm_writes_cleaner.to_string(),
        ]);
    }
    rows.push(vec![
        "EP (reference)".to_string(),
        "-".into(),
        lp_bench::overhead_pct(ep.writes(), base_writes),
        "-".into(),
    ]);
    print_table(
        "Figure 11 — extra NVMM writes vs time-between-cleanings (fraction of exec time)",
        &[
            "Config",
            "interval (cycles)",
            "write overhead vs base",
            "cleaner writes",
        ],
        &rows,
    );
    println!("\npaper: 0.08% interval -> +32% (below EP's +36%); 33% interval -> < +2%");
}
