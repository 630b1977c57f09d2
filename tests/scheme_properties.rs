//! Cross-crate integration tests backing the paper's Table I: the
//! mechanism-level differences between Lazy and Eager Persistency.
//!
//! | Aspect            | Eager           | Lazy                |
//! |-------------------|-----------------|---------------------|
//! | CL flushes        | needed          | none                |
//! | Durable barriers  | needed          | none                |
//! | Logging           | needed (WAL)    | none                |
//! | Error detection   | log/marker      | software checksum   |
//! | Write amp         | high            | low (checksum only) |
//! | Exe overheads     | high            | low                 |
//! | Recovery          | cheap           | validate + recompute|

use lp_core::scheme::Scheme;
use lp_kernels::driver::{run_kernel, KernelId, Scale};
use lp_kernels::tmm::{Tmm, TmmParams};
use lp_sim::config::MachineConfig;
use lp_sim::machine::{Machine, Outcome};
use lp_sim::prelude::CrashTrigger;

fn cfg() -> MachineConfig {
    MachineConfig::default().with_nvmm_bytes(32 << 20)
}

#[test]
fn lazy_uses_no_flushes_barriers_or_logs_on_any_kernel() {
    for kernel in KernelId::ALL {
        let run = run_kernel(kernel, Scale::Test, &cfg(), Scheme::lazy_default());
        assert!(run.verified, "{kernel}");
        let t = run.stats.core_totals();
        assert_eq!(t.flushes, 0, "{kernel}: LP must not flush");
        assert_eq!(t.writebacks_issued, 0, "{kernel}: LP must not clwb");
        assert_eq!(t.fences, 0, "{kernel}: LP must not fence");
        assert_eq!(
            t.fence_stall_cycles, 0,
            "{kernel}: LP must not stall on barriers"
        );
        assert_eq!(run.stats.mem.nvmm_writes_flush, 0, "{kernel}");
    }
}

#[test]
fn eager_flushes_and_fences_on_every_kernel() {
    for kernel in KernelId::ALL {
        let run = run_kernel(kernel, Scale::Test, &cfg(), Scheme::Eager);
        assert!(run.verified, "{kernel}");
        let t = run.stats.core_totals();
        assert!(t.flushes > 0, "{kernel}: EP must flush");
        assert!(t.fences > 0, "{kernel}: EP must fence");
    }
}

#[test]
fn write_amplification_ordering_lazy_below_eager_below_wal() {
    // tmm at a size where natural evictions occur (small caches).
    let params = TmmParams {
        n: 64,
        bsize: 8,
        threads: 2,
        kk_window: 4,
        seed: 5,
    };
    let small = cfg().with_l1_bytes(4 * 1024).with_l2_bytes(32 * 1024);
    let base = lp_kernels::driver::run::<Tmm>(&small, params, Scheme::Base);
    let lp = lp_kernels::driver::run::<Tmm>(&small, params, Scheme::lazy_default());
    let ep = lp_kernels::driver::run::<Tmm>(&small, params, Scheme::Eager);
    let wal = lp_kernels::driver::run::<Tmm>(&small, params, Scheme::Wal);
    assert!(base.verified && lp.verified && ep.verified && wal.verified);
    // LP within a few percent of base.
    let lp_amp = lp.writes() as f64 / base.writes() as f64;
    assert!(lp_amp < 1.10, "LP write amplification {lp_amp}");
    assert!(ep.writes() > lp.writes());
    assert!(wal.writes() > ep.writes(), "WAL logs double the traffic");
}

#[test]
fn lazy_relies_on_natural_evictions_for_durability() {
    // With caches big enough to hold everything, an LP run leaves the
    // output *volatile*; draining (or more execution) makes it durable.
    let params = TmmParams::test_small();
    let mut machine = Machine::new(cfg().with_cores(params.threads));
    let tmm = Tmm::setup(&mut machine, params, Scheme::lazy_default()).unwrap();
    assert_eq!(machine.run(tmm.plans()), Outcome::Completed);
    assert!(
        !tmm.verify(&machine),
        "nothing evicted yet: durable image incomplete"
    );
    machine.drain_caches();
    assert!(
        tmm.verify(&machine),
        "after writeback the image is complete"
    );
}

#[test]
fn eager_is_durable_without_any_drain() {
    let params = TmmParams::test_small();
    let mut machine = Machine::new(cfg().with_cores(params.threads));
    let tmm = Tmm::setup(&mut machine, params, Scheme::Eager).unwrap();
    assert_eq!(machine.run(tmm.plans()), Outcome::Completed);
    // Simulate instant power loss: EP's output must already be durable.
    machine.mem_mut().force_crash();
    machine.mem_mut().acknowledge_crash();
    assert!(tmm.verify(&machine), "EP output survives without a drain");
}

#[test]
fn volatility_duration_eager_short_lazy_like_base() {
    let params = TmmParams {
        n: 64,
        bsize: 8,
        threads: 2,
        kk_window: 4,
        seed: 9,
    };
    let small = cfg().with_l1_bytes(4 * 1024).with_l2_bytes(32 * 1024);
    let base = lp_kernels::driver::run::<Tmm>(&small, params, Scheme::Base);
    let lp = lp_kernels::driver::run::<Tmm>(&small, params, Scheme::lazy_default());
    let ep = lp_kernels::driver::run::<Tmm>(&small, params, Scheme::Eager);
    let (b, l, e) = (
        base.stats.mem.max_volatility,
        lp.stats.mem.max_volatility,
        ep.stats.mem.max_volatility,
    );
    assert!(e < b / 2, "eager flushing shortens volatility: {e} vs {b}");
    assert!(l >= b / 2, "LP volatility tracks base: {l} vs {b}");
}

#[test]
fn recovery_cost_is_where_lazy_pays() {
    // Crash both schemes at the same point; LP's recovery does checksum
    // validation + recomputation, EP's resumes from its durable marker.
    let params = TmmParams::test_small();
    let mut costs = Vec::new();
    for scheme in [Scheme::lazy_default(), Scheme::Eager] {
        let mut machine = Machine::new(cfg().with_cores(params.threads));
        let tmm = Tmm::setup(&mut machine, params, scheme).unwrap();
        machine.set_crash_trigger(CrashTrigger::AfterMemOps(10_000));
        assert_eq!(machine.run(tmm.plans()), Outcome::Crashed);
        machine.clear_crash_trigger();
        machine.take_stats();
        let rstats = tmm.recover(&mut machine);
        machine.drain_caches();
        assert!(tmm.verify(&machine), "{scheme}");
        costs.push((scheme, rstats));
    }
    // Both recovered correctly; LP checked checksums (EP checked none).
    assert!(costs[0].1.regions_checked > 0, "LP validates checksums");
}
