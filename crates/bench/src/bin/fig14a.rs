//! Figure 14(a): sensitivity of LP and EP execution-time overhead to the
//! NVMM read/write latency, for tmm. Each latency pair is normalized to
//! the *base* run at the same latencies.
//!
//! Paper reference: as latencies grow from (60, 150) ns to (150, 300) ns,
//! EagerRecompute's overhead trends *up* (flushes, misses and barriers
//! all get slower) while Lazy Persistency's overhead shrinks.
//!
//! Run: `cargo run --release -p lp-bench --bin fig14a [--quick]`.

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

    let latencies = [(60u64, 150u64), (100, 200), (150, 300)];
    let cells: Vec<(u64, u64, Scheme)> = latencies
        .iter()
        .flat_map(|&(r, w)| {
            [Scheme::Base, Scheme::lazy_default(), Scheme::Eager]
                .into_iter()
                .map(move |s| (r, w, s))
        })
        .collect();
    let runs = run_cells(args.host_jobs(), &cells, |&(read_ns, write_ns, scheme)| {
        eprintln!("fig14a: ({read_ns}, {write_ns}) ns {scheme}...");
        let cfg = args.base_config().with_nvmm_latency_ns(read_ns, write_ns);
        let run = driver::run::<Tmm>(&cfg, params, scheme);
        assert!(run.verified, "({read_ns}, {write_ns}) {scheme}");
        run
    });
    let mut rows = Vec::new();
    for (i, (read_ns, write_ns)) in latencies.into_iter().enumerate() {
        let [base, lp, ep] = &runs[3 * i..3 * i + 3] else {
            unreachable!()
        };
        rows.push(vec![
            format!("({read_ns}, {write_ns}) ns"),
            overhead_pct(lp.cycles(), base.cycles()),
            overhead_pct(ep.cycles(), base.cycles()),
        ]);
    }
    print_table(
        "Figure 14(a) — execution-time overhead vs NVMM (read, write) latency",
        &["NVMM latency", "LP", "EP"],
        &rows,
    );
    println!("\npaper: EP overhead grows with latency; LP overhead shrinks");
}
