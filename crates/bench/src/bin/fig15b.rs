//! Figure 15(b): LP execution-time overhead by error-detection code
//! (modular, parity, Adler-32, modular∥parity), vs base tmm.
//!
//! Paper reference: modular 0.2%, parity 0.1%, Adler-32 ~1%,
//! modular∥parity 3.4% — all below EP's 12%.
//!
//! Run: `cargo run --release -p lp-bench --bin fig15b [--quick]`.

use lp_bench::{overhead_pct, print_table, run_cells, BenchArgs};
use lp_core::checksum::ChecksumKind;
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

    let mut cells = vec![Scheme::Base];
    cells.extend(ChecksumKind::ALL.into_iter().map(Scheme::Lazy));
    cells.push(Scheme::Eager);
    let runs = run_cells(args.host_jobs(), &cells, |&scheme| {
        eprintln!("fig15b: {scheme}...");
        let run = driver::run::<Tmm>(&cfg, params, scheme);
        if scheme != Scheme::Eager {
            assert!(run.verified, "{scheme}");
        }
        run
    });
    let base = &runs[0];
    let mut rows = Vec::new();
    for (kind, lp) in ChecksumKind::ALL.iter().zip(&runs[1..]) {
        rows.push(vec![
            kind.name().to_string(),
            overhead_pct(lp.cycles(), base.cycles()),
        ]);
    }
    let ep = runs.last().expect("EP run");
    rows.push(vec![
        "EP (reference)".into(),
        overhead_pct(ep.cycles(), base.cycles()),
    ]);
    print_table(
        "Figure 15(b) — LP execution-time overhead by checksum kind",
        &["Checksum", "overhead vs base"],
        &rows,
    );
    println!("\npaper: modular 0.2% | parity 0.1% | adler32 ~1% | modular+parity 3.4% | EP 12%");
}
