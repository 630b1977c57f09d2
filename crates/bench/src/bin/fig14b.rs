//! Figure 14(b): scalability — tmm execution time for base and LP as the
//! thread count varies from 1 to 16, normalized to base with 1 thread.
//!
//! Paper reference: LP scales like base (the checksum adds no
//! synchronization — the collision-free table needs no locks).
//!
//! Run: `cargo run --release -p lp-bench --bin fig14b [--quick]`.

use lp_bench::{print_table, run_cells, BenchArgs};
use lp_core::scheme::Scheme;
use lp_kernels::driver;
use lp_kernels::tmm::{Tmm, TmmParams};

fn main() {
    let args = BenchArgs::parse();
    let params0 = if args.quick {
        TmmParams::bench_default()
    } else {
        TmmParams::paper_default()
    };
    let cfg = args.base_config();

    let counts = [1usize, 2, 4, 8, 16];
    let cells: Vec<(usize, Scheme)> = counts
        .iter()
        .flat_map(|&t| {
            [Scheme::Base, Scheme::lazy_default()]
                .into_iter()
                .map(move |s| (t, s))
        })
        .collect();
    let runs = run_cells(args.host_jobs(), &cells, |&(threads, scheme)| {
        eprintln!("fig14b: {threads} thread(s) {scheme}...");
        let mut params = params0;
        params.threads = threads;
        let run = driver::run::<Tmm>(&cfg, params, scheme);
        assert!(run.verified, "{threads} threads {scheme}");
        run
    });
    let base1 = runs[0].cycles().max(1);
    let mut rows = Vec::new();
    for (i, threads) in counts.into_iter().enumerate() {
        let [base, lp] = &runs[2 * i..2 * i + 2] else {
            unreachable!()
        };
        rows.push(vec![
            threads.to_string(),
            format!("{:.3}", base.cycles() as f64 / base1 as f64),
            format!("{:.3}", lp.cycles() as f64 / base1 as f64),
            format!("{:.2}x", base1 as f64 / base.cycles().max(1) as f64),
            format!("{:.2}x", base1 as f64 / lp.cycles().max(1) as f64),
        ]);
    }
    print_table(
        "Figure 14(b) — execution time vs threads (normalized to base @ 1 thread)",
        &["Threads", "base", "LP", "base speedup", "LP speedup"],
        &rows,
    );
    println!("\npaper: LP matches base scalability from 1 to 16 threads");
}
