//! Figure 15(a): sensitivity of LP's execution-time overhead to the L2
//! cache size (256 KB / 512 KB / 1 MB), with the L2 miss rate.
//!
//! Paper reference: 256 KB → 6.5% overhead (L2MR > 4%); 512 KB → 0.2%
//! (L2MR 2%); 1 MB → 0.1% (L2MR 1.5%). Small caches evict the working
//! set + checksums early, hurting LP.
//!
//! Run: `cargo run --release -p lp-bench --bin fig15a [--quick]`.

use lp_bench::{overhead_pct, print_table, run_cells, BenchArgs};
use lp_core::scheme::Scheme;
use lp_kernels::driver;
use lp_kernels::tmm::{Tmm, TmmParams};

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

    let sizes = [256usize, 512, 1024];
    let cells: Vec<(usize, Scheme)> = sizes
        .iter()
        .flat_map(|&kb| {
            [Scheme::Base, Scheme::lazy_default()]
                .into_iter()
                .map(move |s| (kb, s))
        })
        .collect();
    let runs = run_cells(args.host_jobs(), &cells, |&(l2_kb, scheme)| {
        eprintln!("fig15a: L2 {l2_kb} KB {scheme}...");
        let cfg = args.base_config().with_l2_bytes(l2_kb * 1024);
        let run = driver::run::<Tmm>(&cfg, params, scheme);
        assert!(run.verified, "L2 {l2_kb} KB {scheme}");
        run
    });
    let mut rows = Vec::new();
    for (i, l2_kb) in sizes.into_iter().enumerate() {
        let [base, lp] = &runs[2 * i..2 * i + 2] else {
            unreachable!()
        };
        rows.push(vec![
            format!("{l2_kb} KB"),
            overhead_pct(lp.cycles(), base.cycles()),
            format!("{:.3}", lp.stats.mem.l2_miss_rate()),
            format!("{:.3}", base.stats.mem.l2_miss_rate()),
        ]);
    }
    print_table(
        "Figure 15(a) — LP execution-time overhead vs L2 size",
        &["L2 size", "LP overhead", "LP L2MR", "base L2MR"],
        &rows,
    );
    println!("\npaper: 256KB -> 6.5% (L2MR>4%); 512KB -> 0.2% (2%); 1MB -> 0.1% (1.5%)");
}
