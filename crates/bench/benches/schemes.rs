//! End-to-end benchmark: one small tmm window under each persistency
//! scheme. Wall-clock here tracks simulated work (ops), so the relative
//! host times mirror the schemes' instruction-count overheads
//! (WAL ≫ EP > LP ≈ base).
//!
//! Run: `cargo bench -p lp-bench --bench schemes`.

use lp_core::scheme::Scheme;
use lp_kernels::driver;
use lp_kernels::tmm::{Tmm, TmmParams};
use lp_sim::config::MachineConfig;
use std::time::Instant;

fn main() {
    let params = TmmParams {
        n: 64,
        bsize: 8,
        threads: 2,
        kk_window: 2,
        seed: 42,
    };
    let cfg = MachineConfig::default().with_nvmm_bytes(16 << 20);
    println!(
        "tmm_end_to_end: n={} bsize={} threads={} kk_window={}",
        params.n, params.bsize, params.threads, params.kk_window
    );
    for scheme in [
        Scheme::Base,
        Scheme::lazy_default(),
        Scheme::Eager,
        Scheme::Wal,
    ] {
        let samples = 10;
        let mut best = f64::INFINITY;
        let mut total = 0.0;
        let mut verified = true;
        for _ in 0..samples {
            let start = Instant::now();
            let run = driver::run::<Tmm>(&cfg, params, scheme);
            let secs = start.elapsed().as_secs_f64();
            verified &= run.verified;
            best = best.min(secs);
            total += secs;
        }
        println!(
            "  {:12} best {:8.1} ms   mean {:8.1} ms   [{} samples, verified={verified}]",
            scheme.name(),
            best * 1e3,
            total / samples as f64 * 1e3,
            samples,
        );
    }
}
