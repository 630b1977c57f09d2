//! Figure 10: execution time and number of NVMM writes for tiled matrix
//! multiplication under base / LP / EP / WAL, normalized to base.
//!
//! Paper reference values: base 1.00/1.00, tmm+LP 1.002/1.003,
//! tmm+EP 1.12/1.36, tmm+WAL 5.97/3.83.
//!
//! Run: `cargo run --release -p lp-bench --bin fig10` (add `--quick` for
//! a scaled-down smoke run).

use lp_bench::{norm, print_bars, print_table, run_cells, BenchArgs};
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
    let cfg = args.base_config();
    eprintln!(
        "fig10: tmm n={} bsize={} threads={} kk_window={}",
        params.n, params.bsize, params.threads, params.kk_window
    );

    let schemes = [
        ("base (tmm)", Scheme::Base),
        ("tmm+LP", Scheme::lazy_default()),
        ("tmm+EP", Scheme::Eager),
        ("tmm+WAL", Scheme::Wal),
    ];
    let runs = run_cells(args.host_jobs(), &schemes, |&(label, scheme)| {
        let t0 = std::time::Instant::now();
        let run = driver::run::<Tmm>(&cfg, params, scheme);
        assert!(run.verified, "{label}: output verification failed");
        eprintln!("  {label}: done");
        (run, t0.elapsed())
    });

    let mut rows = Vec::new();
    let mut time_bars = Vec::new();
    let mut write_bars = Vec::new();
    let (bc, bw) = (runs[0].0.cycles(), runs[0].0.writes());
    for ((label, _), (run, host)) in schemes.iter().zip(&runs) {
        let (cycles, writes) = (run.cycles(), run.writes());
        rows.push(vec![
            (*label).to_string(),
            norm(cycles, bc),
            norm(writes, bw),
            cycles.to_string(),
            writes.to_string(),
            format!("{host:.1?}"),
        ]);
        time_bars.push(((*label).to_string(), cycles as f64 / bc as f64));
        write_bars.push(((*label).to_string(), writes as f64 / bw as f64));
    }
    print_table(
        "Figure 10 — tmm execution time & NVMM writes (normalized to base)",
        &[
            "Scheme",
            "Exe Time",
            "Num Writes",
            "cycles",
            "writes",
            "host time",
        ],
        &rows,
    );
    print_bars("Normalized execution time", &time_bars, |v| {
        format!("{v:.3}x")
    });
    print_bars("Normalized NVMM writes", &write_bars, |v| {
        format!("{v:.3}x")
    });
    println!("\npaper: base 1.00/1.00 | LP 1.002/1.003 | EP 1.12/1.36 | WAL 5.97/3.83");
}
