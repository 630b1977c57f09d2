//! Drain-consistency properties the crash-state model checker builds on:
//! once `Machine::drain_caches` has written every dirty line back, the
//! durable image *is* the coherent image, so (a) every committed LP
//! region must pass `region_consistent` under every checksum code, and
//! (b) running real recovery on the drained image must be a no-op.

use lp_core::checksum::ChecksumKind;
use lp_core::recovery::region_consistent;
use lp_core::scheme::{Scheme, SchemeHandles};
use lp_kernels::driver::{prepare_kernel, KernelId, Scale};
use lp_sim::config::MachineConfig;
use lp_sim::machine::{Machine, Outcome};

/// Run a small two-threaded LP workload (4 regions of 6 elements each)
/// under `kind` and return everything needed to audit it afterwards.
fn run_lazy_workload(kind: ChecksumKind) -> (Machine, SchemeHandles, lp_sim::mem::PArray<f64>) {
    let mut machine = Machine::new(
        MachineConfig::default()
            .with_cores(2)
            .with_nvmm_bytes(1 << 20),
    );
    let arr = machine.alloc::<f64>(64).unwrap();
    for i in 0..64 {
        machine.poke(arr, i, 0.0);
    }
    let handles = SchemeHandles::alloc(&mut machine, Scheme::Lazy(kind), 16, 2, 64).unwrap();
    let mut plans = machine.plans();
    for (tid, plan) in plans.iter_mut().enumerate() {
        let tp = handles.thread(tid);
        for r in 0..2 {
            let key = 2 * tid + r;
            plan.region(move |ctx| {
                let mut rs = tp.begin(ctx, key);
                for j in 0..6 {
                    let i = 8 * key + j;
                    tp.store(ctx, &mut rs, arr, i, (i as f64).sin() + key as f64);
                }
                tp.commit(ctx, rs);
            });
        }
    }
    assert_eq!(machine.run(plans), Outcome::Completed);
    (machine, handles, arr)
}

#[test]
fn every_region_is_consistent_after_drain_under_all_checksums() {
    for kind in ChecksumKind::ALL {
        let (mut machine, handles, arr) = run_lazy_workload(kind);
        machine.drain_caches();
        let table = handles.table;
        let mut ctx = machine.ctx(0);
        for key in 0..4 {
            assert!(
                region_consistent(
                    &mut ctx,
                    &table,
                    key,
                    kind,
                    (8 * key..8 * key + 6).map(|i| (arr, i))
                ),
                "region {key} inconsistent after drain under {kind:?}"
            );
        }
    }
}

#[test]
fn recovery_on_a_drained_image_is_a_no_op() {
    let cfg = MachineConfig::default().with_nvmm_bytes(4 << 20);
    for kind in ChecksumKind::ALL {
        let mut pk = prepare_kernel(KernelId::Tmm, Scale::Micro, &cfg, Scheme::Lazy(kind));
        let plans = std::mem::take(&mut pk.plans);
        assert_eq!(pk.machine.run(plans), Outcome::Completed);
        pk.machine.drain_caches();
        let stats = (pk.recover)(&mut pk.machine);
        assert_eq!(
            stats.recomputed_regions, 0,
            "drained image needed repairs under {kind:?}"
        );
        assert!(
            (pk.verify)(&pk.machine),
            "verify failed after no-op recovery under {kind:?}"
        );
    }
    // The non-checksum schemes' recoveries must equally trust a complete
    // durable image.
    for scheme in [Scheme::Eager, Scheme::Wal] {
        let mut pk = prepare_kernel(KernelId::Tmm, Scale::Micro, &cfg, scheme);
        let plans = std::mem::take(&mut pk.plans);
        assert_eq!(pk.machine.run(plans), Outcome::Completed);
        pk.machine.drain_caches();
        let stats = (pk.recover)(&mut pk.machine);
        assert_eq!(
            stats.recomputed_regions, 0,
            "{scheme}: drained image repaired"
        );
        assert!((pk.verify)(&pk.machine), "{scheme}: verify after recovery");
    }
}
