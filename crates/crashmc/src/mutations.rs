//! Mutation workloads: seven tiny programs, each violating exactly one
//! persistency-discipline rule, for which the model checker must find at
//! least one reachable crash state that recovery cannot repair.
//!
//! These mirror the seven `lp-check` lint mutations (same names, same
//! bug classes) but are *not* the lint rigs: a lint flags the violating
//! instruction sequence, whereas the checker must exhibit a concrete
//! post-crash NVMM image on which the scheme's recovery silently
//! corrupts data or gets stuck. Each rig therefore carries its own
//! honest recovery routine — the recovery a correct implementation of
//! the scheme would run — so every flagged state is attributable to the
//! injected discipline bug, not to sloppy recovery code.
//!
//! Every rig keeps the undetermined-line census at the interesting crash
//! points within `K = 4`, so the CI smoke budget enumerates the failing
//! subset exhaustively rather than hoping to sample it.

use lp_core::checksum::{checksum_f64s, ChecksumKind, RunningChecksum};
use lp_core::recovery::{region_consistent, RecoveryStats};
use lp_core::scheme::{Scheme, SchemeHandles};
use lp_sim::config::MachineConfig;
use lp_sim::machine::Machine;
use lp_sim::mem::PArray;

use crate::mc::{CheckCase, PreparedCase};

const CK: ChecksumKind = ChecksumKind::Modular;

/// A fresh rig machine: `cores` cores, 1 MiB NVMM, a 64-element `f64`
/// working array (zeroed), and the scheme's support structures.
pub(crate) fn rig(cores: usize, scheme: Scheme) -> (Machine, PArray<f64>, SchemeHandles) {
    let mut machine = Machine::new(
        MachineConfig::default()
            .with_cores(cores)
            .with_nvmm_bytes(1 << 20),
    );
    let arr = machine.alloc::<f64>(64).expect("rig array");
    for i in 0..64 {
        machine.poke(arr, i, 0.0);
    }
    let handles = SchemeHandles::alloc(&mut machine, scheme, 16, cores, 64).expect("rig handles");
    (machine, arr, handles)
}

/// Eagerly persist `arr[i] = v` (store + flush; callers fence).
fn eager_store(ctx: &mut lp_sim::core::CoreCtx<'_>, arr: PArray<f64>, i: usize, v: f64) {
    ctx.store(arr, i, v);
    ctx.clflushopt(arr.addr(i));
}

/// LP region skips folding one store into its checksum: the unfolded
/// line can be lost in a crash without the recomputed checksum noticing
/// (a zero line folds to the same Modular sum), so recovery declares the
/// region consistent over corrupt data.
pub fn lp_skip_fold() -> CheckCase {
    const KEY: usize = 7;
    const VALS: [(usize, f64); 3] = [(0, 3.5), (8, -1.25), (16, 7.0)];
    CheckCase {
        name: "mut:lp_skip_fold".into(),
        build: Box::new(|| {
            let (machine, arr, handles) = rig(1, Scheme::Lazy(CK));
            let table = handles.table;
            let mut plans = machine.plans();
            plans[0].region(move |ctx| {
                ctx.region_begin(KEY);
                let mut ck = RunningChecksum::new(CK);
                for (n, (i, v)) in VALS.into_iter().enumerate() {
                    ctx.store(arr, i, v);
                    if n < 2 {
                        ck.update(v.to_bits());
                    } // BUG: the third store is never folded
                }
                table.store(ctx, KEY, ck.value());
                ctx.region_end();
            });
            PreparedCase {
                machine,
                plans,
                recover: Box::new(move |m| {
                    let mut st = RecoveryStats {
                        regions_checked: 1,
                        ..Default::default()
                    };
                    let mut ctx = m.ctx(0);
                    let slots = VALS.iter().map(|&(i, _)| (arr, i));
                    if !region_consistent(&mut ctx, &table, KEY, CK, slots) {
                        st.regions_inconsistent = 1;
                        st.recomputed_regions = 1;
                        for (i, v) in VALS {
                            eager_store(&mut ctx, arr, i, v);
                        }
                        ctx.sfence();
                        let vs: Vec<f64> = VALS.iter().map(|&(_, v)| v).collect();
                        table.store(&mut ctx, KEY, checksum_f64s(CK, &vs));
                        table.persist(&mut ctx, KEY);
                    }
                    st
                }),
                flip_lines: Vec::new(),
                poison_lines: Vec::new(),
                verify: Box::new(move |m| VALS.iter().all(|&(i, v)| m.peek(arr, i) == v)),
            }
        }),
    }
}

/// A store to protected data lands outside any region: no checksum
/// covers it, so a crash that loses its line leaves recovery nothing to
/// notice or repair.
pub fn store_outside_region() -> CheckCase {
    const KEY: usize = 1;
    CheckCase {
        name: "mut:store_outside_region".into(),
        build: Box::new(|| {
            let (machine, arr, handles) = rig(1, Scheme::Lazy(CK));
            let table = handles.table;
            let mut plans = machine.plans();
            plans[0].region(move |ctx| {
                ctx.store(arr, 0, 5.0); // BUG: unprotected store, no region
                ctx.region_begin(KEY);
                ctx.store(arr, 8, 2.0);
                ctx.store(arr, 9, 4.0);
                table.store(ctx, KEY, checksum_f64s(CK, &[2.0, 4.0]));
                ctx.region_end();
            });
            PreparedCase {
                machine,
                plans,
                recover: Box::new(move |m| {
                    let mut st = RecoveryStats {
                        regions_checked: 1,
                        ..Default::default()
                    };
                    let mut ctx = m.ctx(0);
                    if !region_consistent(&mut ctx, &table, KEY, CK, [(arr, 8), (arr, 9)]) {
                        st.regions_inconsistent = 1;
                        st.recomputed_regions = 1;
                        eager_store(&mut ctx, arr, 8, 2.0);
                        eager_store(&mut ctx, arr, 9, 4.0);
                        ctx.sfence();
                        table.store(&mut ctx, KEY, checksum_f64s(CK, &[2.0, 4.0]));
                        table.persist(&mut ctx, KEY);
                    }
                    st
                }),
                flip_lines: Vec::new(),
                poison_lines: Vec::new(),
                verify: Box::new(move |m| {
                    m.peek(arr, 0) == 5.0 && m.peek(arr, 8) == 2.0 && m.peek(arr, 9) == 4.0
                }),
            }
        }),
    }
}

/// EagerRecompute region omits the fence between its data flushes and
/// the marker update: a crash can persist the marker while a data flush
/// is still in flight, so recovery trusts a region whose data never
/// arrived.
pub fn ep_skip_fence() -> CheckCase {
    const KEY: usize = 2;
    const VALS: [(usize, f64); 2] = [(0, 1.5), (8, 2.5)];
    CheckCase {
        name: "mut:ep_skip_fence".into(),
        build: Box::new(|| {
            let (machine, arr, handles) = rig(1, Scheme::Eager);
            let markers = handles.markers;
            let mut plans = machine.plans();
            plans[0].region(move |ctx| {
                ctx.region_begin(KEY);
                for (i, v) in VALS {
                    eager_store(ctx, arr, i, v);
                }
                // BUG: no sfence before the marker — data flushes are
                // still retirable when the marker becomes durable.
                ctx.store(markers, 0, KEY as u64 + 1);
                ctx.clflushopt(markers.addr(0));
                ctx.sfence();
                ctx.region_end();
            });
            PreparedCase {
                machine,
                plans,
                recover: Box::new(move |m| {
                    let mut st = RecoveryStats {
                        regions_checked: 1,
                        ..Default::default()
                    };
                    let marker = m.peek(markers, 0);
                    if marker != KEY as u64 + 1 {
                        st.regions_inconsistent = 1;
                        st.recomputed_regions = 1;
                        let mut ctx = m.ctx(0);
                        for (i, v) in VALS {
                            eager_store(&mut ctx, arr, i, v);
                        }
                        ctx.sfence();
                        ctx.store(markers, 0, KEY as u64 + 1);
                        ctx.clflushopt(markers.addr(0));
                        ctx.sfence();
                    }
                    st
                }),
                flip_lines: Vec::new(),
                poison_lines: Vec::new(),
                verify: Box::new(move |m| VALS.iter().all(|&(i, v)| m.peek(arr, i) == v)),
            }
        }),
    }
}

/// EagerRecompute region forgets to flush one of its stores: the line
/// can sit dirty in cache while the (properly fenced) marker commits,
/// and a crash then loses data the marker vouches for.
pub fn ep_skip_flush() -> CheckCase {
    const KEY: usize = 5;
    const VALS: [(usize, f64); 3] = [(0, 1.0), (8, 2.0), (16, 3.0)];
    CheckCase {
        name: "mut:ep_skip_flush".into(),
        build: Box::new(|| {
            let (machine, arr, handles) = rig(1, Scheme::Eager);
            let markers = handles.markers;
            let mut plans = machine.plans();
            plans[0].region(move |ctx| {
                ctx.region_begin(KEY);
                for (n, (i, v)) in VALS.into_iter().enumerate() {
                    ctx.store(arr, i, v);
                    if n != 1 {
                        ctx.clflushopt(arr.addr(i));
                    } // BUG: arr[8] is never flushed
                }
                ctx.sfence();
                ctx.store(markers, 0, KEY as u64 + 1);
                ctx.clflushopt(markers.addr(0));
                ctx.sfence();
                ctx.region_end();
            });
            PreparedCase {
                machine,
                plans,
                recover: Box::new(move |m| {
                    let mut st = RecoveryStats {
                        regions_checked: 1,
                        ..Default::default()
                    };
                    let marker = m.peek(markers, 0);
                    if marker != KEY as u64 + 1 {
                        st.regions_inconsistent = 1;
                        st.recomputed_regions = 1;
                        let mut ctx = m.ctx(0);
                        for (i, v) in VALS {
                            eager_store(&mut ctx, arr, i, v);
                        }
                        ctx.sfence();
                        ctx.store(markers, 0, KEY as u64 + 1);
                        ctx.clflushopt(markers.addr(0));
                        ctx.sfence();
                    }
                    st
                }),
                flip_lines: Vec::new(),
                poison_lines: Vec::new(),
                verify: Box::new(move |m| VALS.iter().all(|&(i, v)| m.peek(arr, i) == v)),
            }
        }),
    }
}

/// WAL transaction mutates data in place *before* its undo log is
/// durable: a crash in that window leaves modified data with no log to
/// roll it back, so the re-run double-applies the update.
pub fn wal_data_before_log() -> CheckCase {
    const KEY: usize = 4;
    const INIT: f64 = 5.0;
    const DELTA: f64 = 9.0;
    CheckCase {
        name: "mut:wal_data_before_log".into(),
        build: Box::new(|| {
            let (mut machine, arr, handles) = rig(1, Scheme::Wal);
            machine.poke(arr, 0, INIT);
            let arena = handles.arenas[0];
            let tp = handles.thread(0);
            let (log, header) = (arena.entries_array(), arena.header_array());
            let mut plans = machine.plans();
            plans[0].region(move |ctx| {
                // Hand-rolled transaction mirroring `WalTx`, except the
                // in-place data store happens before the log is sealed.
                ctx.region_begin(KEY);
                let old: f64 = ctx.load(arr, 0);
                ctx.store(arr, 0, old + DELTA); // BUG: data before log
                ctx.store(log, 0, arr.addr(0).0);
                ctx.store(log, 1, old.to_bits());
                ctx.store(log, 2, header.addr(2).0); // marker's undo pair,
                ctx.store(log, 3, 0u64); // as the real commit logs it
                ctx.clflushopt(log.addr(0));
                ctx.sfence();
                ctx.store(header, 1, 2); // count
                ctx.store(header, 0, 1); // status: log sealed
                ctx.clflushopt(header.addr(0));
                ctx.sfence();
                ctx.clflushopt(arr.addr(0)); // apply phase
                ctx.store(header, 2, KEY as u64 + 1); // marker
                ctx.clflushopt(header.addr(0));
                ctx.sfence();
                ctx.store(header, 0, 0); // status: applied
                ctx.clflushopt(header.addr(0));
                ctx.sfence();
                ctx.region_end();
            });
            PreparedCase {
                machine,
                plans,
                recover: Box::new(move |m| {
                    let mut st = RecoveryStats {
                        regions_checked: 1,
                        ..Default::default()
                    };
                    let mut ctx = m.ctx(0);
                    arena.recover(&mut ctx);
                    if arena.marker(&mut ctx) != KEY as u64 + 1 {
                        st.regions_inconsistent = 1;
                        st.recomputed_regions = 1;
                        let mut rs = tp.begin(&mut ctx, KEY);
                        let v: f64 = ctx.load(arr, 0);
                        tp.store(&mut ctx, &mut rs, arr, 0, v + DELTA);
                        tp.commit(&mut ctx, rs);
                    }
                    st
                }),
                flip_lines: Vec::new(),
                poison_lines: Vec::new(),
                verify: Box::new(move |m| m.peek(arr, 0) == INIT + DELTA),
            }
        }),
    }
}

/// Two concurrent LP regions read-modify-write the *same* element: each
/// checksum is sound in isolation, but re-executing either region during
/// recovery replays a non-idempotent accumulation on top of the other's
/// surviving effect.
pub fn overlap_write_sets() -> CheckCase {
    const KEYS: [usize; 2] = [0, 8]; // distinct checksum-table lines
    const ADDS: [f64; 2] = [1.0, 2.0];
    CheckCase {
        name: "mut:overlap_write_sets".into(),
        build: Box::new(|| {
            let (machine, arr, handles) = rig(2, Scheme::Lazy(CK));
            let table = handles.table;
            let mut plans = machine.plans();
            for tid in 0..2 {
                plans[tid].region(move |ctx| {
                    ctx.region_begin(KEYS[tid]);
                    let v: f64 = ctx.load(arr, 0);
                    let next = v + ADDS[tid]; // BUG: both regions RMW arr[0]
                    ctx.store(arr, 0, next);
                    table.store(ctx, KEYS[tid], checksum_f64s(CK, &[next]));
                    ctx.region_end();
                });
            }
            PreparedCase {
                machine,
                plans,
                recover: Box::new(move |m| {
                    let mut st = RecoveryStats::default();
                    let mut ctx = m.ctx(0);
                    for tid in 0..2 {
                        st.regions_checked += 1;
                        let consistent =
                            region_consistent(&mut ctx, &table, KEYS[tid], CK, [(arr, 0)]);
                        if !consistent {
                            st.regions_inconsistent += 1;
                            st.recomputed_regions += 1;
                            let v: f64 = ctx.load(arr, 0);
                            let next = v + ADDS[tid];
                            eager_store(&mut ctx, arr, 0, next);
                            ctx.sfence();
                            table.store(&mut ctx, KEYS[tid], checksum_f64s(CK, &[next]));
                            table.persist(&mut ctx, KEYS[tid]);
                        }
                    }
                    st
                }),
                flip_lines: Vec::new(),
                poison_lines: Vec::new(),
                verify: Box::new(move |m| m.peek(arr, 0) == ADDS[0] + ADDS[1]),
            }
        }),
    }
}

/// A later region rewrites a committed region's data with a
/// sum-preserving update and no fresh checksum: the stale checksum still
/// matches the new data (Modular folds to the same value), so recovery
/// false-matches and re-executes the rewrite on already-rewritten data.
pub fn torn_rewrite() -> CheckCase {
    const K1: usize = 10;
    const K2: usize = 11;
    CheckCase {
        name: "mut:torn_rewrite".into(),
        build: Box::new(|| {
            let (mut machine, _arr, handles) = rig(1, Scheme::Lazy(CK));
            let table = handles.table;
            let vals = machine.alloc::<u64>(16).expect("u64 rig array");
            for i in 0..16 {
                machine.poke(vals, i, 0);
            }
            let mut plans = machine.plans();
            plans[0]
                .region(move |ctx| {
                    ctx.region_begin(K1);
                    ctx.store(vals, 0, 100u64);
                    ctx.store(vals, 1, 50u64);
                    let mut ck = RunningChecksum::new(CK);
                    ck.update(100);
                    ck.update(50);
                    table.store(ctx, K1, ck.value());
                    ctx.region_end();
                })
                .region(move |ctx| {
                    ctx.region_begin(K2);
                    // Wrapping arithmetic: after a crash fires mid-plan,
                    // loads return 0 while the remaining ops no-op.
                    let a: u64 = ctx.load(vals, 0);
                    let b: u64 = ctx.load(vals, 1);
                    ctx.store(vals, 0, a.wrapping_add(10)); // BUG: sum-preserving
                    ctx.store(vals, 1, b.wrapping_sub(10)); // rewrite, no fresh checksum
                    ctx.region_end();
                });
            let rebuild_k2 = move |ctx: &mut lp_sim::core::CoreCtx<'_>| {
                let a = ctx.load::<u64>(vals, 0).wrapping_add(10);
                let b = ctx.load::<u64>(vals, 1).wrapping_sub(10);
                ctx.store(vals, 0, a);
                ctx.store(vals, 1, b);
                ctx.clflushopt(vals.addr(0));
                ctx.sfence();
                let mut ck = RunningChecksum::new(CK);
                ck.update(a);
                ck.update(b);
                table.store(ctx, K2, ck.value());
                table.persist(ctx, K2);
            };
            PreparedCase {
                machine,
                plans,
                recover: Box::new(move |m| {
                    let mut st = RecoveryStats {
                        regions_checked: 2,
                        ..Default::default()
                    };
                    let mut ctx = m.ctx(0);
                    // Newest-first scan, as LP recovery prescribes.
                    if region_consistent(&mut ctx, &table, K2, CK, [(vals, 0), (vals, 1)]) {
                        return st;
                    }
                    st.regions_inconsistent += 1;
                    st.recomputed_regions += 1;
                    if !region_consistent(&mut ctx, &table, K1, CK, [(vals, 0), (vals, 1)]) {
                        st.regions_inconsistent += 1;
                        st.recomputed_regions += 1;
                        ctx.store(vals, 0, 100u64);
                        ctx.store(vals, 1, 50u64);
                        ctx.clflushopt(vals.addr(0));
                        ctx.sfence();
                        let mut ck = RunningChecksum::new(CK);
                        ck.update(100);
                        ck.update(50);
                        table.store(&mut ctx, K1, ck.value());
                        table.persist(&mut ctx, K1);
                    }
                    rebuild_k2(&mut ctx);
                    st
                }),
                flip_lines: Vec::new(),
                poison_lines: Vec::new(),
                verify: Box::new(move |m| m.peek(vals, 0) == 110 && m.peek(vals, 1) == 40),
            }
        }),
    }
}

/// All seven mutation cases, in `lp-check` rule order.
pub fn all() -> Vec<CheckCase> {
    vec![
        store_outside_region(),
        lp_skip_fold(),
        ep_skip_fence(),
        ep_skip_flush(),
        wal_data_before_log(),
        overlap_write_sets(),
        torn_rewrite(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mc::{check_case, Budget, BudgetMode};

    fn budget() -> Budget {
        Budget {
            mode: BudgetMode::Exhaustive,
            k: 4,
            faults: lp_sim::fault::FaultConfig::none(),
            dedup: true,
        }
    }

    /// Every mutation must manifest as at least one corrupt-or-stuck
    /// reachable crash state — the checker's teeth.
    #[test]
    fn every_mutation_is_flagged() {
        // Recovery of a garbage image may legitimately panic ("stuck");
        // keep the test log quiet about those expected unwinds.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let reports: Vec<_> = all().iter().map(|c| check_case(c, &budget(), 42)).collect();
        std::panic::set_hook(prev);
        for r in &reports {
            assert!(
                r.flagged(),
                "{} found no corrupt/stuck state in {} states over {} points",
                r.case_name,
                r.states_checked,
                r.points_total,
            );
            assert!(
                r.consistent > 0,
                "{} should still have many recoverable states",
                r.case_name
            );
        }
    }
}
