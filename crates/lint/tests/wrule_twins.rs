//! W-rule dynamic twins: each write-efficiency rule (W1–W4) is shown as a
//! buggy/fixed pair of instruction sequences run on a real machine.
//! Removing the redundancy the rule flags must drop the simulator counter
//! the rule twins (`SRule::dynamic_twin`: `flushes` for W1/W3/W4,
//! `fences` for W2) by exactly the amount pinned here.

use lp_core::ep::EagerCommitter;
use lp_lint::report::Twin;
use lp_lint::SRule;
use lp_sim::config::MachineConfig;
use lp_sim::core::CoreCtx;
use lp_sim::machine::Machine;
use lp_sim::mem::PArray;

/// Core flush/fence totals after running `f` on a one-core machine with
/// a 64-element `f64` scratch array (8 cache lines).
fn counters(f: impl FnOnce(&mut CoreCtx<'_>, PArray<f64>)) -> (u64, u64) {
    let cfg = MachineConfig::default()
        .with_nvmm_bytes(16 << 20)
        .with_cores(1);
    let mut m = Machine::new(cfg);
    let arr = m.alloc::<f64>(64).expect("scratch fits");
    {
        let mut ctx = m.ctx(0);
        f(&mut ctx, arr);
    }
    let t = m.stats().core_totals();
    (t.flushes, t.fences)
}

/// W4's buggy/fixed counters over `rounds` rounds, each storing and
/// noting the first `lines` cache lines of the scratch array: a commit per
/// round (buggy) against one commit hoisted out of the loop (fixed).
fn w4_pair(rounds: usize, lines: usize) -> ((u64, u64), (u64, u64)) {
    let elems = lines * 8;
    let buggy = counters(|ctx, arr| {
        for round in 0..rounds {
            let mut ec = EagerCommitter::new();
            for i in 0..elems {
                ctx.store(arr, i, (round * elems + i) as f64);
                ec.note(arr.addr(i));
            }
            ec.commit(ctx);
        }
    });
    let fixed = counters(|ctx, arr| {
        let mut ec = EagerCommitter::new();
        for round in 0..rounds {
            for i in 0..elems {
                ctx.store(arr, i, (round * elems + i) as f64);
                ec.note(arr.addr(i));
            }
        }
        ec.commit(ctx);
    });
    (buggy, fixed)
}

/// The counter `rule` twins, picked out of a `(flushes, fences)` pair.
fn twin_counter(rule: SRule, (flushes, fences): (u64, u64)) -> u64 {
    match rule.dynamic_twin() {
        Twin::Counter("flushes") => flushes,
        Twin::Counter("fences") => fences,
        twin => panic!("{} twins {twin:?}, not a counter", rule.id()),
    }
}

#[test]
fn every_wrule_counter_drops_when_fixed() {
    // W1: the same line flushed twice with no intervening store.
    let w1_buggy = counters(|ctx, arr| {
        ctx.store(arr, 0, 1.0);
        ctx.clflushopt(arr.addr(0));
        ctx.clflushopt(arr.addr(0));
        ctx.sfence();
    });
    let w1_fixed = counters(|ctx, arr| {
        ctx.store(arr, 0, 1.0);
        ctx.clflushopt(arr.addr(0));
        ctx.sfence();
    });

    // W2: a fence no unflushed store can reach.
    let w2_buggy = counters(|ctx, arr| {
        ctx.store(arr, 0, 1.0);
        ctx.clflushopt(arr.addr(0));
        ctx.sfence();
        ctx.sfence();
    });
    let w2_fixed = w1_fixed; // one store, one flush, one fence

    // W3: an element flush already covered by a range flush.
    let w3_buggy = counters(|ctx, arr| {
        for i in 0..64 {
            ctx.store(arr, i, i as f64);
        }
        ctx.clflushopt(arr.addr(0));
        ctx.flush_range(arr, 0, 64);
        ctx.sfence();
    });
    let w3_fixed = counters(|ctx, arr| {
        for i in 0..64 {
            ctx.store(arr, i, i as f64);
        }
        ctx.flush_range(arr, 0, 64);
        ctx.sfence();
    });

    // W4: a per-iteration commit that publishes nothing. The same line is
    // re-flushed and re-fenced every round; hoisting the commit out of the
    // loop dedups it (the tmm/gauss recovery-replay shape): 4 rounds x 1
    // line against 1 deduplicated line.
    let (w4_buggy, w4_fixed) = w4_pair(4, 1);

    let pairs = [
        (SRule::W1RedundantFlush, w1_buggy, w1_fixed),
        (SRule::W2RedundantFence, w2_buggy, w2_fixed),
        (SRule::W3ShadowedFlush, w3_buggy, w3_fixed),
        (SRule::W4MissedCoalescing, w4_buggy, w4_fixed),
    ];
    let drops: Vec<(&str, u64, u64)> = pairs
        .iter()
        .map(|&(rule, buggy, fixed)| {
            (
                rule.id(),
                twin_counter(rule, buggy),
                twin_counter(rule, fixed),
            )
        })
        .collect();
    assert_eq!(
        drops,
        [("W1", 2, 1), ("W2", 2, 1), ("W3", 9, 8), ("W4", 4, 1)],
        "(rule, buggy, fixed) of each rule's twin counter"
    );
    let w_rules: Vec<&str> = SRule::all()
        .into_iter()
        .map(SRule::id)
        .filter(|id| id.starts_with('W'))
        .collect();
    let demonstrated: Vec<&str> = drops.iter().map(|d| d.0).collect();
    assert_eq!(demonstrated, w_rules, "every W rule has a twin pair");
}

#[test]
fn w4_delta_matches_the_dedup_arithmetic() {
    // A commit per round flushes every noted line again, `rounds x lines`
    // flushes in all; the hoisted commit flushes each line once. One round
    // has nothing to coalesce.
    for (rounds, lines) in [(1, 1), (4, 1), (2, 3), (4, 8)] {
        let (buggy, fixed) = w4_pair(rounds, lines);
        let flushes = |c| twin_counter(SRule::W4MissedCoalescing, c);
        assert_eq!(
            (flushes(buggy), flushes(fixed)),
            ((rounds * lines) as u64, lines as u64),
            "{rounds} rounds x {lines} lines"
        );
    }
}
