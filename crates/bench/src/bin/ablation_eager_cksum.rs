//! Ablation (Section III-D): should the *checksum itself* be persisted
//! lazily or eagerly?
//!
//! The paper chooses lazy (accepting the false-negative case R3 of
//! Figure 6 — a fully-persisted region whose checksum was lost gets
//! recomputed unnecessarily) because eager-persisting the checksum pays
//! flush + fence per region in the failure-free common case. This binary
//! measures that price and the benefit (fewer unnecessary recomputations
//! after a crash).
//!
//! Run: `cargo run --release -p lp-bench --bin ablation_eager_cksum [--quick]`.

use lp_bench::{overhead_pct, print_table, BenchArgs};
use lp_core::checksum::ChecksumKind;
use lp_core::scheme::Scheme;
use lp_kernels::driver;
use lp_kernels::tmm::{Tmm, TmmParams};
use lp_sim::machine::{Machine, Outcome};
use lp_sim::prelude::CrashTrigger;

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

    // Normal-execution price.
    eprintln!("ablation: measuring normal-execution cost...");
    let base = driver::run::<Tmm>(&cfg, params, Scheme::Base);
    let lazy = driver::run::<Tmm>(&cfg, params, Scheme::Lazy(ChecksumKind::Modular));
    let eager_ck = driver::run::<Tmm>(&cfg, params, Scheme::LazyEagerCk(ChecksumKind::Modular));
    assert!(base.verified && lazy.verified && eager_ck.verified);

    let rows = vec![
        vec![
            "LP (lazy checksum, paper's choice)".to_string(),
            overhead_pct(lazy.cycles(), base.cycles()),
            overhead_pct(lazy.writes(), base.writes()),
            lazy.stats.core_totals().fences.to_string(),
        ],
        vec![
            "LP (eager checksum)".to_string(),
            overhead_pct(eager_ck.cycles(), base.cycles()),
            overhead_pct(eager_ck.writes(), base.writes()),
            eager_ck.stats.core_totals().fences.to_string(),
        ],
    ];
    print_table(
        "Ablation §III-D — checksum persistence policy: normal-execution cost",
        &["Variant", "exe overhead", "write overhead", "fences"],
        &rows,
    );

    // Recovery benefit: crash late with a small L2 so region *data* has
    // been naturally evicted (durable) while lazily-persisted checksums
    // may still be cached — the false-negative case R3 of Figure 6 that
    // the eager-checksum variant eliminates.
    eprintln!("ablation: measuring recovery behaviour after a crash...");
    let mut rows = Vec::new();
    for (label, scheme) in [
        ("LP (lazy checksum)", Scheme::Lazy(ChecksumKind::Modular)),
        (
            "LP (eager checksum)",
            Scheme::LazyEagerCk(ChecksumKind::Modular),
        ),
    ] {
        let quick_params = TmmParams::bench_default();
        let mut machine = Machine::new(
            cfg.clone()
                .with_cores(quick_params.threads)
                .with_l2_bytes(128 * 1024),
        );
        let tmm = Tmm::setup(&mut machine, quick_params, scheme).unwrap();
        machine.set_crash_trigger(CrashTrigger::AfterMemOps(2_000_000));
        assert_eq!(machine.run(tmm.plans()), Outcome::Crashed);
        machine.clear_crash_trigger();
        machine.take_stats();
        let r = tmm.recover(&mut machine);
        machine.drain_caches();
        assert!(tmm.verify(&machine), "{label}");
        rows.push(vec![
            label.to_string(),
            r.regions_checked.to_string(),
            r.regions_inconsistent.to_string(),
            r.recomputed_regions.to_string(),
            r.cycles.to_string(),
        ]);
    }
    print_table(
        "Ablation §III-D — recovery after an identical mid-run crash",
        &[
            "Variant",
            "checked",
            "inconsistent",
            "recomputed",
            "recovery cycles",
        ],
        &rows,
    );
    println!("\npaper: chooses the lazy checksum — failures are rare, so paying\nflush+fence per region in the common case is the wrong trade.");
}
