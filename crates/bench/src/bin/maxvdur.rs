//! Maximum volatility duration (Section VI, unfigured measurement): how
//! long blocks stay dirty in the hierarchy before reaching NVMM, for tmm
//! under base / EP / LP, normalized to base.
//!
//! Paper reference: EagerRecompute's maxvdur is 20% of base (eager
//! flushing shortens volatility); Lazy Persistency's is 101% of base.
//!
//! Run: `cargo run --release -p lp-bench --bin maxvdur [--quick]`.

use lp_bench::{print_table, BenchArgs};
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

    let schemes = [
        ("base (tmm)", Scheme::Base),
        ("tmm+EP", Scheme::Eager),
        ("tmm+LP", Scheme::lazy_default()),
    ];
    let mut rows = Vec::new();
    let mut base_vdur = 0u64;
    for (label, scheme) in schemes {
        let run = driver::run::<Tmm>(&cfg, params, scheme);
        assert!(run.verified, "{label}");
        let vdur = run.stats.mem.max_volatility;
        if base_vdur == 0 {
            base_vdur = vdur.max(1);
        }
        let hist = &run.stats.mem.volatility_hist;
        rows.push(vec![
            label.to_string(),
            format!("{:.0}%", vdur as f64 / base_vdur as f64 * 100.0),
            vdur.to_string(),
            format!("{:.0}", run.stats.mem.mean_volatility()),
            hist.percentile(50.0).map_or("-".into(), |v| v.to_string()),
            hist.percentile(99.0).map_or("-".into(), |v| v.to_string()),
        ]);
        eprintln!("  {label}: done");
    }
    print_table(
        "Max volatility duration (cycles dirty before reaching NVMM), vs base",
        &[
            "Scheme",
            "maxvdur vs base",
            "maxvdur (cycles)",
            "mean vdur",
            "p50 bucket",
            "p99 bucket",
        ],
        &rows,
    );
    println!("\npaper: EP 20% of base; LP 101% of base");
}
