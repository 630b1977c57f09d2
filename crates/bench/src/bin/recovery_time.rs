//! Recovery-time study (the *point* of Section VI-A's periodic cleaner):
//! how much recomputation a crash costs under Lazy Persistency, with and
//! without the periodic hardware cleaner, across cleaning intervals.
//!
//! The cleaner bounds how long results stay volatile, so after a crash
//! fewer regions mismatch their checksums and recovery recomputes less.
//! This binary crashes an identical tmm run at the same operation count
//! under each configuration and reports the recovery work.
//!
//! Run: `cargo run --release -p lp-bench --bin recovery_time [--quick]`.

use lp_bench::{print_table, BenchArgs};
use lp_core::scheme::Scheme;
use lp_kernels::tmm::{Tmm, TmmParams};
use lp_sim::cleaner::CleanerConfig;
use lp_sim::config::MachineConfig;
use lp_sim::machine::{Machine, Outcome};
use lp_sim::prelude::CrashTrigger;

fn run_case(cfg: &MachineConfig, params: TmmParams, crash_ops: u64) -> (u64, u64, u64, u64, u64) {
    let mut machine = Machine::new(cfg.clone().with_cores(params.threads));
    let tmm = Tmm::setup(&mut machine, params, Scheme::lazy_default()).unwrap();
    machine.set_crash_trigger(CrashTrigger::AfterMemOps(crash_ops));
    assert_eq!(machine.run(tmm.plans()), Outcome::Crashed);
    let run_stats = machine.take_stats();
    machine.clear_crash_trigger();
    let r = tmm.recover(&mut machine);
    machine.drain_caches();
    assert!(tmm.verify(&machine), "recovery failed");
    (
        r.regions_inconsistent,
        r.recomputed_regions,
        r.cycles,
        run_stats.nvmm_writes(),
        run_stats.mem.nvmm_writes_cleaner,
    )
}

fn main() {
    let args = BenchArgs::parse();
    let params = if args.quick {
        TmmParams {
            n: 128,
            bsize: 16,
            threads: 4,
            kk_window: 4,
            seed: 42,
        }
    } else {
        TmmParams::bench_default()
    };
    let cfg = args.base_config();

    // Crash roughly three-quarters of the way through the run.
    eprintln!("recovery_time: sizing the run...");
    let probe = lp_kernels::driver::run::<Tmm>(&cfg, params, Scheme::lazy_default());
    let total_ops = probe.stats.instructions(); // proxy; mem ops scale with it
    let crash_ops = (total_ops / 8).max(10_000); // instructions >> mem ops
    let probe_cycles = probe.cycles().max(1);

    let mut rows = Vec::new();
    eprintln!("recovery_time: no cleaner...");
    let (inc, rep, cyc, writes, _) = run_case(&cfg, params, crash_ops);
    rows.push(vec![
        "no cleaner".to_string(),
        inc.to_string(),
        rep.to_string(),
        cyc.to_string(),
        writes.to_string(),
        "0".into(),
    ]);
    for frac in [0.01f64, 0.05, 0.20] {
        let interval = ((probe_cycles as f64 * frac) as u64).max(1);
        eprintln!(
            "recovery_time: cleaner @ {:.0}% of exec ({interval} cycles)...",
            frac * 100.0
        );
        let cfg_clean = cfg
            .clone()
            .with_cleaner(CleanerConfig::every_cycles(interval));
        let (inc, rep, cyc, writes, cleaner_writes) = run_case(&cfg_clean, params, crash_ops);
        rows.push(vec![
            format!("cleaner @ {:.0}% of exec", frac * 100.0),
            inc.to_string(),
            rep.to_string(),
            cyc.to_string(),
            writes.to_string(),
            cleaner_writes.to_string(),
        ]);
    }
    print_table(
        "Recovery work after an identical crash, vs cleaning interval (§VI-A)",
        &[
            "Config",
            "inconsistent",
            "recomputed",
            "recovery cycles",
            "run writes",
            "cleaner writes",
        ],
        &rows,
    );
    println!("\npaper: the cleaner bounds recovery time at a modest write cost");
}
