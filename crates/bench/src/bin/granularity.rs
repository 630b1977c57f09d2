//! Region-granularity study (Section III-C): the checksum-overhead /
//! recovery-cost trade-off that drives the paper's choice of the `ii`
//! loop as the LP region.
//!
//! Sweeping the tile size changes the region size (one region is a
//! `bsize × n` strip per `kk`): smaller regions mean more checksums (more
//! overhead, finer recovery); larger regions mean fewer checksums but
//! more lost work to recompute after a crash. This binary measures both
//! sides on tmm.
//!
//! Run: `cargo run --release -p lp-bench --bin granularity [--quick]`.

use lp_bench::{overhead_pct, print_table, BenchArgs};
use lp_core::scheme::Scheme;
use lp_kernels::driver;
use lp_kernels::tmm::{Tmm, TmmParams};
use lp_sim::machine::{Machine, Outcome};
use lp_sim::prelude::CrashTrigger;

fn main() {
    let args = BenchArgs::parse();
    let n = if args.quick { 128 } else { 512 };
    let threads = args.threads.unwrap_or(4);
    let cfg = args.base_config();

    let mut rows = Vec::new();
    for bsize in [8usize, 16, 32, 64] {
        let params = TmmParams {
            n,
            bsize,
            threads,
            kk_window: 2,
            seed: 42,
        };
        eprintln!("granularity: bsize={bsize}...");
        // Overhead side: LP vs base at this granularity.
        let base = driver::run::<Tmm>(&cfg, params, Scheme::Base);
        let lp = driver::run::<Tmm>(&cfg, params, Scheme::lazy_default());
        assert!(base.verified && lp.verified);
        let regions = params.window() * params.nb();

        // Recovery side: identical-fraction crash, measure recomputation.
        let mut machine = Machine::new(cfg.clone().with_cores(threads));
        let tmm_work = Tmm::setup(&mut machine, params, Scheme::lazy_default()).unwrap();
        machine.set_crash_trigger(CrashTrigger::AfterMemOps(
            (base.stats.instructions() / 16).max(1_000),
        ));
        let (inconsistent, recovery_cycles) = if machine.run(tmm_work.plans()) == Outcome::Crashed {
            machine.clear_crash_trigger();
            machine.take_stats();
            let r = tmm_work.recover(&mut machine);
            machine.drain_caches();
            assert!(tmm_work.verify(&machine), "bsize={bsize}");
            (r.regions_inconsistent, r.cycles)
        } else {
            (0, 0)
        };

        rows.push(vec![
            format!("{bsize} ({} regions)", regions),
            overhead_pct(lp.cycles(), base.cycles()),
            tmm_work.handles.table.bytes().to_string(),
            inconsistent.to_string(),
            recovery_cycles.to_string(),
        ]);
    }
    print_table(
        "Section III-C — LP region granularity trade-off (tmm strip height)",
        &[
            "bsize",
            "LP exe overhead",
            "table bytes",
            "regions recomputed",
            "recovery cycles",
        ],
        &rows,
    );
    println!("\npaper: ii granularity balances checksum overhead against lost work;\nkk would risk recomputing nearly the whole run, j-level multiplies checksums.");
}
