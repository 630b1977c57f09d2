//! Recovery write-efficiency: the quarantine/replay rebuild paths defer
//! durability to one hoisted sink commit instead of flushing and fencing
//! every replay round (`lp-lint` rule W4; dynamic twin: the `flushes` /
//! `fences` counters). These tests crash a real run mid-window, run the
//! real recovery, and check the recovery-side counters; the sink
//! micro-benchmark pins the dedup arithmetic a per-iteration sink (the
//! pre-fix shape) cannot match: re-flushing the same strip lines every
//! round multiplies `flushes` and pays one fence per round instead of
//! one per rebuild.

use lp_core::recovery::{EagerOnlySink, RecoveryStats, StoreSink};
use lp_core::scheme::Scheme;
use lp_kernels::gauss::{Gauss, GaussParams};
use lp_kernels::tmm::{Tmm, TmmParams};
use lp_sim::config::MachineConfig;
use lp_sim::machine::{Machine, Outcome};
use lp_sim::prelude::CrashTrigger;

fn cfg(cores: usize) -> MachineConfig {
    MachineConfig::default()
        .with_cores(cores)
        .with_nvmm_bytes(16 << 20)
}

/// Crash a TMM run at ~3/4 of its clean-run cycle count, recover, and
/// return the recovery-only `(flushes, fences)` plus the recovery stats.
fn tmm_recovery(scheme: Scheme) -> (u64, u64, RecoveryStats) {
    let params = TmmParams {
        n: 32,
        bsize: 8,
        threads: 2,
        kk_window: 4,
        seed: 42,
    };
    let mut m = Machine::new(cfg(params.threads));
    let k = Tmm::setup(&mut m, params, scheme).unwrap();
    assert_eq!(m.run(k.plans()), Outcome::Completed);
    let total = m.stats().exec_cycles();

    let mut m = Machine::new(cfg(params.threads));
    let k = Tmm::setup(&mut m, params, scheme).unwrap();
    m.set_crash_trigger(CrashTrigger::AtCycle(total * 3 / 4));
    assert_eq!(m.run(k.plans()), Outcome::Crashed);
    let _ = m.take_stats();
    m.clear_crash_trigger();
    let r = k.recover(&mut m);
    let s = m.take_stats().core_totals();
    m.drain_caches();
    assert!(k.verify(&m), "recovery must repair the crash");
    (s.flushes, s.fences, r)
}

/// Same shape for Gauss.
fn gauss_recovery(scheme: Scheme) -> (u64, u64, RecoveryStats) {
    let params = GaussParams {
        n: 32,
        bsize: 8,
        threads: 2,
        pivot_window: 4,
        seed: 11,
    };
    let mut m = Machine::new(cfg(params.threads));
    let k = Gauss::setup(&mut m, params, scheme).unwrap();
    assert_eq!(m.run(k.plans()), Outcome::Completed);
    let total = m.stats().exec_cycles();

    let mut m = Machine::new(cfg(params.threads));
    let k = Gauss::setup(&mut m, params, scheme).unwrap();
    m.set_crash_trigger(CrashTrigger::AtCycle(total * 3 / 4));
    assert_eq!(m.run(k.plans()), Outcome::Crashed);
    let _ = m.take_stats();
    m.clear_crash_trigger();
    let r = k.recover(&mut m);
    let s = m.take_stats().core_totals();
    m.drain_caches();
    assert!(k.verify(&m), "recovery must repair the crash");
    (s.flushes, s.fences, r)
}

#[test]
fn tmm_eager_recovery_counters() {
    let (flushes, fences, r) = tmm_recovery(Scheme::Eager);
    println!(
        "tmm/eager recovery: flushes={flushes} fences={fences} repaired={}",
        r.recomputed_regions
    );
    assert!(r.recomputed_regions > 0, "crash must leave work to repair");
    // Measured (deterministic): 1417 flushes / 18 fences with the
    // rebuild sink hoisted; 1513 / 21 with the pre-fix per-round sink.
    // The bounds sit between the two so the per-round shape fails.
    assert!(flushes <= 1460, "rebuild re-flushes strip lines: {flushes}");
    assert!(fences <= 19, "rebuild fences once per round: {fences}");
}

#[test]
fn gauss_eager_recovery_counters() {
    let (flushes, fences, r) = gauss_recovery(Scheme::Eager);
    println!(
        "gauss/eager recovery: flushes={flushes} fences={fences} repaired={}",
        r.recomputed_regions
    );
    assert!(r.recomputed_regions > 0, "crash must leave work to repair");
    // Measured (deterministic): 252 flushes / 5 fences with the replay
    // sink hoisted out of the triple loop; 600 / 20 per-block.
    assert!(flushes <= 400, "replay re-flushes block lines: {flushes}");
    assert!(fences <= 10, "replay fences once per block: {fences}");
}

/// The dedup arithmetic with the real sink: replaying N rounds over the
/// same lines through one hoisted [`EagerOnlySink`] flushes each line
/// once and fences once; a per-round sink pays both per round.
#[test]
fn hoisted_sink_coalesces_replay_rounds() {
    let rounds = 4usize;
    let elems = 16usize; // two cache lines of f64
    let run = |hoisted: bool| -> (u64, u64) {
        let mut m = Machine::new(cfg(1));
        let a = m.alloc::<f64>(elems).unwrap();
        let mut ctx = m.ctx(0);
        if hoisted {
            let mut sink = EagerOnlySink::default();
            for _ in 0..rounds {
                for i in 0..elems {
                    sink.store(&mut ctx, a, i, 1.0);
                }
            }
            sink.commit(&mut ctx);
        } else {
            for _ in 0..rounds {
                let mut sink = EagerOnlySink::default();
                for i in 0..elems {
                    sink.store(&mut ctx, a, i, 1.0);
                }
                sink.commit(&mut ctx);
            }
        }
        let t = m.stats().core_totals();
        (t.flushes, t.fences)
    };
    let (f_per, s_per) = run(false);
    let (f_hoist, s_hoist) = run(true);
    // 16 f64 = 2 lines: per-round pays 2 flushes + 1 fence × 4 rounds.
    assert_eq!((f_per, s_per), (8, 4));
    assert_eq!((f_hoist, s_hoist), (2, 1));
}
