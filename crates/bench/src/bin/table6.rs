//! Table VI: structural-hazard events (MSHR full, FUI, FUR, FUW) and L2
//! miss rate for tmm under base / EP / LP.
//!
//! Paper reference (normalized to base): EP MSHR 1.84, FUI 21.57,
//! FUR 22.4, FUW 31109 (absolute), L2MR 0.05; LP MSHR 0.95, FUI 1.11,
//! FUR 1.2, FUW 2 (absolute), L2MR 0.02; base L2MR 0.01.
//!
//! Run: `cargo run --release -p lp-bench --bin table6 [--quick]`.

use lp_bench::{print_table, run_cells, BenchArgs};
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
    let runs = run_cells(args.host_jobs(), &schemes, |&(label, scheme)| {
        let run = driver::run::<Tmm>(&cfg, params, scheme);
        assert!(run.verified, "{label}");
        eprintln!("  {label}: done");
        run
    });
    let mut rows = Vec::new();
    for ((label, _), run) in schemes.iter().zip(&runs) {
        let t = run.stats.core_totals();
        // L2MR reported as L2 misses per memory access (the per-access
        // definition under which the paper's base tmm shows 0.01).
        let l2mr = run.stats.mem.l2_misses as f64 / t.l1_accesses().max(1) as f64;
        rows.push(vec![
            label.to_string(),
            t.mshr_full_events.to_string(),
            t.fui_events.to_string(),
            t.fur_events.to_string(),
            t.fuw_events.to_string(),
            format!("{:.3}", l2mr),
        ]);
    }
    print_table(
        "Table VI — structural-hazard event counts (absolute; the paper reports \
MSHR/FUI/FUR normalized to base) & L2 misses per memory access",
        &["Scheme", "MSHR", "FUI", "FUR", "FUW", "L2MR"],
        &rows,
    );
    println!("\npaper: base 1.00/1.00/1.00/1/0.01 | EP 1.84/21.57/22.4/31109/0.05 | LP 0.95/1.11/1.2/2/0.02");
}
