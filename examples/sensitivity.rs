//! Mini sensitivity study through the public API: how Lazy Persistency's
//! and Eager Persistency's overheads respond to NVMM latency and L2 size
//! (the shape of Figures 14(a) and 15(a), at example scale). Run with:
//!
//! ```sh
//! cargo run --release --example sensitivity
//! ```

use lp_core::scheme::Scheme;
use lp_kernels::driver;
use lp_kernels::tmm::{Tmm, TmmParams};
use lp_sim::config::MachineConfig;

fn overhead(x: u64, base: u64) -> String {
    format!("{:+.1}%", (x as f64 / base as f64 - 1.0) * 100.0)
}

fn main() {
    let params = TmmParams {
        n: 128,
        bsize: 16,
        threads: 4,
        kk_window: 4,
        seed: 3,
    };

    println!("NVMM latency sweep (read, write) — tmm overhead vs base:");
    println!("{:<16} {:>8} {:>8}", "latency", "LP", "EP");
    for (r, w) in [(60u64, 150u64), (100, 200), (150, 300)] {
        let cfg = MachineConfig::default()
            .with_nvmm_bytes(32 << 20)
            .with_nvmm_latency_ns(r, w);
        let base = driver::run::<Tmm>(&cfg, params, Scheme::Base);
        let lp = driver::run::<Tmm>(&cfg, params, Scheme::lazy_default());
        let ep = driver::run::<Tmm>(&cfg, params, Scheme::Eager);
        assert!(base.verified && lp.verified && ep.verified);
        println!(
            "{:<16} {:>8} {:>8}",
            format!("({r}, {w}) ns"),
            overhead(lp.cycles(), base.cycles()),
            overhead(ep.cycles(), base.cycles()),
        );
    }

    println!("\nL2 size sweep — tmm overhead vs base:");
    println!("{:<10} {:>8} {:>8}", "L2", "LP", "EP");
    for kb in [128usize, 256, 512] {
        let cfg = MachineConfig::default()
            .with_nvmm_bytes(32 << 20)
            .with_l2_bytes(kb * 1024);
        let base = driver::run::<Tmm>(&cfg, params, Scheme::Base);
        let lp = driver::run::<Tmm>(&cfg, params, Scheme::lazy_default());
        let ep = driver::run::<Tmm>(&cfg, params, Scheme::Eager);
        println!(
            "{:<10} {:>8} {:>8}",
            format!("{kb} KB"),
            overhead(lp.cycles(), base.cycles()),
            overhead(ep.cycles(), base.cycles()),
        );
    }
}
