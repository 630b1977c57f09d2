//! The mutation-rig registry: every deliberately broken persistency
//! discipline, written once, for each verification tool to catch its own
//! way.
//!
//! A [`Rig`] is a tiny program that breaks one rule, together with the
//! honest recovery and verifier a correct implementation of its scheme
//! would run — so every verdict is attributable to the injected bug, not
//! to sloppy recovery code — and with what each tool must report on it:
//!
//! * `lp-check` runs the program crash-free under its sanitizer, which
//!   must flag exactly [`Rig::check`]. The R7 rig's bug lives in
//!   recovery, so its audit crashes the run and watches its own recovery.
//! * `lp-crashmc --mutations` censuses the rig under its own fault class
//!   ([`Rig::faults`]) and must find a corrupt or stuck state, unless the
//!   runtime masks the bug ([`Rig::masked`]).
//! * `lp-lint --differential` lints this file ([`SOURCE`]) and must find
//!   a [`LintVerdict::Static`] rule inside the rig's own function, which
//!   is named after the rig.
//!
//! `mut:` rigs break an ordering rule the clean ADR crash model already
//! exposes. `fmut:` rigs break a hardening rule that only their fault
//! class exposes, and stay clean without it. Every rig keeps the
//! undetermined-line census at its interesting crash points within
//! `K = 4`, so an exhaustive budget enumerates the failing subsets rather
//! than hoping to sample them.

use lp_core::checksum::{checksum_f64s, ChecksumKind, RunningChecksum};
use lp_core::parity::{lane_of, RepairVerdict, Slot};
use lp_core::recovery::{range_poisoned, region_consistent, Recovery, RecoveryStats, StoreSink};
use lp_core::scheme::{Scheme, SchemeHandles};
use lp_core::track::{RangeRole, TrackedRange};
use lp_sim::config::MachineConfig;
use lp_sim::core::CoreCtx;
use lp_sim::fault::FaultConfig;
use lp_sim::machine::Machine;
use lp_sim::mem::{PArray, POISON_WORD};

use crate::mc::{Budget, CheckCase, McReport, PreparedCase};

/// This file's source, which `lp-lint --differential` lints in place.
pub const SOURCE: &str = include_str!("rigs.rs");

const CK: ChecksumKind = ChecksumKind::Modular;
const LAZY: Scheme = Scheme::Lazy(CK);

/// How `lp-lint` must see a rig's bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintVerdict {
    /// Visible in source: this S-rule id (`"S1"`…`"S7"`) must fire inside
    /// the rig's function.
    Static(&'static str),
    /// The bug only exists at runtime, for the reason given.
    DynamicOnly(&'static str),
}

/// One deliberately broken discipline and what each tool must report on
/// it.
pub struct Rig {
    /// The program, its honest recovery and its verifier, named
    /// `mut:<function>` or `fmut:<function>` after the function in this
    /// file that builds it.
    pub case: CheckCase,
    /// The scheme the program runs.
    pub scheme: Scheme,
    /// The persistent ranges the sanitizer tracks: the rig's arrays as
    /// protected data, plus the scheme's structures.
    pub ranges: Vec<TrackedRange>,
    /// The fault class the census runs the rig under
    /// ([`FaultConfig::none`] for the ordering bugs).
    pub faults: FaultConfig,
    /// The lp-check rule id (`"R1"`…`"R8"`) the audit must flag, and only
    /// that; `None` when the sanitizer must stay silent.
    pub check: Option<&'static str>,
    /// Whether the runtime masks the bug: the census must then stay clean,
    /// with rung-1 repairs failing their certificate, instead of finding a
    /// bad state.
    pub masked: bool,
    /// The lp-lint verdict.
    pub lint: LintVerdict,
}

impl Rig {
    /// The rig's function in this file: its name without the prefix.
    pub fn function(&self) -> &str {
        let name = self.case.name.as_str();
        name.split_once(':').map_or(name, |(_, f)| f)
    }

    /// `budget` under this rig's fault class, keeping `budget`'s nested
    /// bound where the class nests and the bound is set.
    pub fn budget(&self, budget: &Budget) -> Budget {
        let mut faults = self.faults;
        if faults.nested && budget.faults.nested_bound > 0 {
            faults.nested_bound = budget.faults.nested_bound;
        }
        Budget { faults, ..*budget }
    }

    /// Whether a census of this rig under its fault class caught it: a
    /// corrupt or stuck state or, for a masked rig, a clean census whose
    /// rung-1 repairs failed.
    pub fn caught(&self, r: &McReport) -> bool {
        if self.masked {
            r.clean() && r.tally.repair_failures > 0
        } else {
            r.flagged()
        }
    }
}

/// A rig's starting state: its machine, a zeroed 64-element `f64`
/// array, the scheme's structures, and its zeroed `u64` words, if any.
type Bench = (Machine, PArray<f64>, SchemeHandles, Option<PArray<u64>>);

/// A fresh [`Bench`] with `cores` cores and 1 MiB of NVMM, the words
/// allocated after the scheme's structures when `words > 0`.
fn bench(scheme: Scheme, cores: usize, words: usize) -> Bench {
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
    let vals = (words > 0).then(|| {
        let vals = machine.alloc::<u64>(words).expect("u64 rig array");
        for i in 0..words {
            machine.poke(vals, i, 0);
        }
        vals
    });
    (machine, arr, handles, vals)
}

/// A rig running `program` on a fresh [`Bench`], its arrays tracked as
/// protected data; the rig's function fills in its fault class and the
/// tools' verdicts.
fn rig(
    name: &str,
    scheme: Scheme,
    cores: usize,
    words: usize,
    program: impl Fn(Bench) -> PreparedCase + Send + Sync + 'static,
) -> Rig {
    let (_, arr, handles, vals) = bench(scheme, cores, words);
    let mut ranges = vec![TrackedRange::of("data", arr, RangeRole::Protected)];
    ranges.extend(vals.map(|v| TrackedRange::of("vals", v, RangeRole::Protected)));
    ranges.extend(handles.ranges());
    Rig {
        case: CheckCase {
            name: name.into(),
            build: Box::new(move || program(bench(scheme, cores, words))),
        },
        scheme,
        ranges,
        faults: FaultConfig::none(),
        check: None,
        masked: false,
        lint: LintVerdict::DynamicOnly(""),
    }
}

/// Eagerly persist `arr[i] = v` (store + flush; callers fence).
fn eager_store(ctx: &mut CoreCtx<'_>, arr: PArray<f64>, i: usize, v: f64) {
    ctx.store(arr, i, v);
    ctx.clflushopt(arr.addr(i));
}

/// A store to protected data lands outside any region: no checksum
/// covers it, so a crash that loses its line leaves recovery nothing to
/// notice or repair.
pub fn store_outside_region() -> Rig {
    const KEY: usize = 1;
    Rig {
        check: Some("R1"),
        lint: LintVerdict::Static("S5"),
        ..rig("mut:store_outside_region", LAZY, 1, 0, |b| {
            let (machine, arr, handles, _) = b;
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
        })
    }
}

/// LP region skips folding one store into its checksum: the unfolded
/// line can be lost in a crash without the recomputed checksum noticing
/// (a zero line folds to the same Modular sum), so recovery declares the
/// region consistent over corrupt data.
pub fn lp_skip_fold() -> Rig {
    const KEY: usize = 7;
    const VALS: [(usize, f64); 3] = [(0, 3.5), (8, -1.25), (16, 7.0)];
    Rig {
        check: Some("R2"),
        lint: LintVerdict::Static("S2"),
        ..rig("mut:lp_skip_fold", LAZY, 1, 0, |b| {
            let (machine, arr, handles, _) = b;
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
        })
    }
}

/// EagerRecompute region omits the fence between its data flushes and
/// the marker update: a crash can persist the marker while a data flush
/// is still in flight, so recovery trusts a region whose data never
/// arrived.
pub fn ep_skip_fence() -> Rig {
    const KEY: usize = 2;
    const VALS: [(usize, f64); 2] = [(0, 1.5), (8, 2.5)];
    Rig {
        check: Some("R3"),
        lint: LintVerdict::Static("S1"),
        ..rig("mut:ep_skip_fence", Scheme::Eager, 1, 0, |b| {
            let (machine, arr, handles, _) = b;
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
        })
    }
}

/// EagerRecompute region forgets to flush one of its stores: the line
/// can sit dirty in cache while the (properly fenced) marker commits,
/// and a crash then loses data the marker vouches for.
pub fn ep_skip_flush() -> Rig {
    const KEY: usize = 5;
    const VALS: [(usize, f64); 3] = [(0, 1.0), (8, 2.0), (16, 3.0)];
    Rig {
        check: Some("R3"),
        lint: LintVerdict::Static("S1"),
        ..rig("mut:ep_skip_flush", Scheme::Eager, 1, 0, |b| {
            let (machine, arr, handles, _) = b;
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
        })
    }
}

/// WAL transaction mutates data in place *before* its undo log is
/// durable: a crash in that window leaves modified data with no log to
/// roll it back, so the re-run double-applies the update.
// lp-lint: context(wal)
pub fn wal_data_before_log() -> Rig {
    const KEY: usize = 4;
    const INIT: f64 = 5.0;
    const DELTA: f64 = 9.0;
    Rig {
        check: Some("R4"),
        lint: LintVerdict::Static("S3"),
        ..rig("mut:wal_data_before_log", Scheme::Wal, 1, 0, |b| {
            let (mut machine, arr, handles, _) = b;
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
        })
    }
}

/// Two concurrent LP regions read-modify-write the *same* element: each
/// checksum is sound in isolation, but re-executing either region during
/// recovery replays a non-idempotent accumulation on top of the other's
/// surviving effect.
pub fn overlap_write_sets() -> Rig {
    const KEYS: [usize; 2] = [0, 8]; // distinct checksum-table lines
    const ADDS: [f64; 2] = [1.0, 2.0];
    Rig {
        check: Some("R5"),
        lint: LintVerdict::DynamicOnly(
            "needs concrete addresses and the cross-thread schedule; write-set \
             overlap is a whole-program aliasing fact invisible to an \
             intraprocedural pass",
        ),
        ..rig("mut:overlap_write_sets", LAZY, 2, 0, |b| {
            let (machine, arr, handles, _) = b;
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
        })
    }
}

/// A later region rewrites a committed region's data with a
/// sum-preserving update and no fresh checksum: the stale checksum still
/// matches the new data (Modular folds to the same value), so recovery
/// false-matches and re-executes the rewrite on already-rewritten data.
pub fn torn_rewrite() -> Rig {
    const K1: usize = 10;
    const K2: usize = 11;
    Rig {
        check: Some("R6"),
        lint: LintVerdict::DynamicOnly(
            "depends on natural eviction timing: the rewrite is only a bug if \
             the first region's checksum had not yet reached NVMM",
        ),
        ..rig("mut:torn_rewrite", LAZY, 1, 16, |b| {
            let (machine, _, handles, vals) = b;
            let vals = vals.expect("rig words");
            let table = handles.table;
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
            let rebuild_k2 = move |ctx: &mut CoreCtx<'_>| {
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
        })
    }
}

/// Four value pairs, each pair sharing one cache line (8 f64s per line).
const PAIRS: [(usize, f64, f64); 4] = [
    (0, 3.5, 4.25),
    (8, -1.5, 2.0),
    (16, 9.0, -0.75),
    (24, 6.5, 1.25),
];

/// Each region checksums only the *first* word of its pair. Under
/// line-granular crashes the audit is accidentally sound: both words
/// live on one line, so they are lost or kept together and the folded
/// word always witnesses the loss. A torn persist can keep the folded
/// word and drop its neighbour — the weak checksum matches over data
/// that is half stale.
pub fn torn_blind_word() -> Rig {
    Rig {
        faults: FaultConfig {
            torn: true,
            ..FaultConfig::none()
        },
        check: Some("R2"),
        lint: LintVerdict::DynamicOnly(
            "torn-write fault semantics: the source ordering is correct; the \
             bug is a blind rewrite interacting with a mid-line tear injected \
             by the fault model",
        ),
        ..rig("fmut:torn_blind_word", LAZY, 1, 0, |b| {
            let (machine, arr, handles, _) = b;
            let table = handles.table;
            let mut plans = machine.plans();
            for (key, (i, a, b)) in PAIRS.into_iter().enumerate() {
                plans[0].region(move |ctx| {
                    ctx.region_begin(key);
                    ctx.store(arr, i, a);
                    ctx.store(arr, i + 1, b); // BUG: never folded, same line
                    let mut ck = RunningChecksum::new(CK);
                    ck.update(a.to_bits());
                    table.store(ctx, key, ck.value());
                    ctx.region_end();
                });
            }
            PreparedCase {
                machine,
                plans,
                recover: Box::new(move |m| {
                    let mut st = RecoveryStats::default();
                    let mut ctx = m.ctx(0);
                    for (key, (i, a, b)) in PAIRS.into_iter().enumerate() {
                        st.regions_checked += 1;
                        // The audit mirrors the commit-side bug: it folds
                        // only the first word, so it cannot see the other.
                        let consistent = region_consistent(&mut ctx, &table, key, CK, [(arr, i)]);
                        if consistent {
                            continue;
                        }
                        st.regions_inconsistent += 1;
                        st.recomputed_regions += 1;
                        ctx.store(arr, i, a);
                        ctx.store(arr, i + 1, b);
                        ctx.clflushopt(arr.addr(i));
                        ctx.sfence();
                        table.store(&mut ctx, key, checksum_f64s(CK, &[a]));
                        table.persist(&mut ctx, key);
                    }
                    st
                }),
                flip_lines: Vec::new(),
                poison_lines: Vec::new(),
                verify: Box::new(move |m| {
                    PAIRS
                        .into_iter()
                        .all(|(i, a, b)| m.peek(arr, i) == a && m.peek(arr, i + 1) == b)
                }),
            }
        })
    }
}

/// Eight `u64` values on one line whose Modular sum equals the sum of
/// eight poison words. Honest recovery quarantines poisoned lines before
/// trusting any checksum; this recovery skips the quarantine, the poison
/// pattern folds to the stored sum, and the audit blesses unreadable
/// data.
pub fn poison_pattern_collision() -> Rig {
    const KEY: usize = 3;
    // Wrapping sum = 8 * POISON_WORD: a weak sum cannot tell these from
    // a fully poisoned line.
    const VALS: [u64; 8] = [
        POISON_WORD,
        POISON_WORD,
        POISON_WORD,
        POISON_WORD,
        POISON_WORD,
        POISON_WORD,
        POISON_WORD.wrapping_add(5),
        POISON_WORD.wrapping_sub(5),
    ];
    Rig {
        faults: FaultConfig {
            media: true,
            ..FaultConfig::none()
        },
        lint: LintVerdict::DynamicOnly(
            "value-dependent: a media-fault poison pattern colliding with a \
             weak checksum is a property of runtime data, not of persist \
             ordering",
        ),
        ..rig("fmut:poison_pattern_collision", LAZY, 1, 8, |b| {
            let (machine, _, handles, vals) = b;
            let vals = vals.expect("rig words");
            let table = handles.table;
            let poison_lines = vec![vals.addr(0).line()];
            let mut plans = machine.plans();
            plans[0].region(move |ctx| {
                ctx.region_begin(KEY);
                let mut ck = RunningChecksum::new(CK);
                for (i, v) in VALS.into_iter().enumerate() {
                    ctx.store(vals, i, v);
                    ck.update(v);
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
                    // BUG: no `poisoned_lines()` quarantine — the audit
                    // reads the poison pattern as if it were data.
                    let mut ctx = m.ctx(0);
                    if !region_consistent(&mut ctx, &table, KEY, CK, (0..8).map(|i| (vals, i))) {
                        st.regions_inconsistent = 1;
                        st.recomputed_regions = 1;
                        let mut ck = RunningChecksum::new(CK);
                        for (i, v) in VALS.into_iter().enumerate() {
                            ctx.store(vals, i, v);
                            ck.update(v);
                        }
                        ctx.clflushopt(vals.addr(0));
                        ctx.sfence();
                        table.store(&mut ctx, KEY, ck.value());
                        table.persist(&mut ctx, KEY);
                    }
                    st
                }),
                flip_lines: Vec::new(),
                poison_lines,
                verify: Box::new(move |m| (0..8).all(|i| m.peek(vals, i) == VALS[i])),
            }
        })
    }
}

/// An EP-style recovery that re-stores the data, then persists its
/// done-marker *before* flushing and fencing the repairs it vouches for.
/// Under single-crash exploration the whole recovery is atomic and the
/// bug invisible; a nested crash between the marker fence and the last
/// repair flush makes the re-entry trust the marker and skip the repair.
pub fn marker_first_recovery() -> Rig {
    const KEY: usize = 6;
    const VALS: [(usize, f64); 4] = [(0, 7.0), (8, 5.5), (16, -2.25), (24, 11.0)];
    Rig {
        faults: FaultConfig {
            nested: true,
            nested_bound: FaultConfig::DEFAULT_NESTED_BOUND,
            ..FaultConfig::none()
        },
        check: Some("R7"),
        lint: LintVerdict::Static("S4"),
        ..rig("fmut:marker_first_recovery", Scheme::Eager, 1, 0, |b| {
            let (machine, arr, handles, _) = b;
            let (markers, tp) = (handles.markers, handles.thread(0));
            let mut plans = machine.plans();
            plans[0].region(move |ctx| {
                // A disciplined EP region: store + flush each value, fence,
                // then advance the marker.
                let mut rs = tp.begin(ctx, KEY);
                for (i, v) in VALS {
                    tp.store(ctx, &mut rs, arr, i, v);
                }
                tp.commit(ctx, rs);
            });
            PreparedCase {
                machine,
                plans,
                recover: Box::new(move |m| {
                    let mut st = RecoveryStats {
                        regions_checked: 1,
                        ..Default::default()
                    };
                    if m.peek(markers, 0) != KEY as u64 + 1 {
                        st.regions_inconsistent = 1;
                        st.recomputed_regions = 1;
                        let mut ctx = m.ctx(0);
                        for (i, v) in VALS {
                            ctx.store(arr, i, v);
                        }
                        // BUG: the marker becomes durable before the
                        // repairs it promises; a crash in between
                        // convinces the next attempt there is nothing
                        // left to repair.
                        ctx.store(markers, 0, KEY as u64 + 1);
                        ctx.clflushopt(markers.addr(0));
                        ctx.sfence();
                        for (i, _) in VALS {
                            ctx.clflushopt(arr.addr(i));
                        }
                        ctx.sfence();
                    }
                    st
                }),
                flip_lines: Vec::new(),
                poison_lines: Vec::new(),
                verify: Box::new(move |m| VALS.iter().all(|&(i, v)| m.peek(arr, i) == v)),
            }
        })
    }
}

/// A LazyParity region publishes its parity line *before* the region's
/// protected stores are all issued: a crash between the early parity
/// store and the remaining data stores leaves durable parity summarizing
/// data that never existed, so a media repair would reconstruct garbage.
/// Crc32 certification masks it at runtime — the reconstruction from the
/// wrong lanes fails its certificate and recovery escalates to
/// recompute — so the census stays clean while the sanitizer and the
/// linter see the latent bug.
pub fn parity_before_data() -> Rig {
    const KEY: usize = 9;
    const KIND: ChecksumKind = ChecksumKind::Crc32;
    const SCHEME: Scheme = Scheme::LazyParity(KIND);
    let value = |i: usize| (i + 1) as f64;
    Rig {
        faults: FaultConfig {
            media: true,
            ..FaultConfig::none()
        },
        check: Some("R8"),
        masked: true,
        lint: LintVerdict::Static("S7"),
        ..rig("mut:parity_before_data", SCHEME, 1, 0, move |b| {
            let (machine, arr, handles, _) = b;
            let (table, parity) = (handles.table, handles.parity);
            let mut plans = machine.plans();
            plans[0].region(move |ctx| {
                ctx.region_begin(KEY);
                let mut ck = RunningChecksum::new(KIND);
                let mut lanes = [0u64; 8];
                for i in 0..4 {
                    ctx.store(arr, i, value(i));
                    ck.update(value(i).to_bits());
                    lanes[lane_of(arr.addr(i))] ^= value(i).to_bits();
                }
                // BUG: parity published mid-region, while half the stores
                // it will end up summarizing are still to come.
                parity.store_lanes(ctx, KEY, &lanes);
                for i in 4..8 {
                    ctx.store(arr, i, value(i));
                    ck.update(value(i).to_bits());
                }
                table.store(ctx, KEY, ck.value());
                ctx.region_end();
            });
            PreparedCase {
                machine,
                plans,
                recover: Box::new(move |m| {
                    let mut rec = Recovery::begin(m, &handles);
                    let slots: Vec<Slot<f64>> = (0..8).map(|i| (arr, i)).collect();
                    let poisoned = range_poisoned(&rec.poisoned, arr, 0, 8);
                    let mut failed = false;
                    // Poison reads as a fixed pattern: a poisoned region
                    // is trusted only when rung 1 rebuilds it.
                    let intact = if poisoned {
                        rec.poison_repair(KEY, &slots) == RepairVerdict::Repaired
                    } else {
                        rec.audit(KEY, slots.iter().copied(), &mut failed)
                    };
                    if !intact {
                        if poisoned || failed {
                            rec.stats.escalations += 1;
                        }
                        rec.recompute(KEY, |ctx, sink| {
                            for i in 0..8 {
                                sink.store(ctx, arr, i, value(i));
                            }
                        });
                    }
                    rec.finish()
                }),
                flip_lines: Vec::new(),
                poison_lines: vec![arr.addr(0).line()],
                verify: Box::new(move |m| (0..8).all(|i| m.peek(arr, i) == value(i))),
            }
        })
    }
}

/// Every rig: the ordering bugs, the fault-interaction bugs, then the
/// bug the runtime masks.
pub fn all() -> Vec<Rig> {
    vec![
        store_outside_region(),
        lp_skip_fold(),
        ep_skip_fence(),
        ep_skip_flush(),
        wal_data_before_log(),
        overlap_write_sets(),
        torn_rewrite(),
        torn_blind_word(),
        poison_pattern_collision(),
        marker_first_recovery(),
        parity_before_data(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mc::{check_case, BudgetMode};

    fn budget() -> Budget {
        Budget {
            mode: BudgetMode::Exhaustive,
            k: 4,
            faults: FaultConfig::none(),
            dedup: true,
        }
    }

    /// Every rig must be caught by the census under its own fault class:
    /// a corrupt or stuck state (or, for a masked rig, failed repairs),
    /// while other states still recover.
    #[test]
    fn every_rig_is_caught_under_its_fault_class() {
        // Recovery of a garbage image may legitimately panic ("stuck");
        // keep the test log quiet about those expected unwinds.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let rigs = all();
        let reports: Vec<_> = rigs
            .iter()
            .map(|r| check_case(&r.case, &r.budget(&budget()), 42))
            .collect();
        std::panic::set_hook(prev);
        for (rig, r) in rigs.iter().zip(&reports) {
            assert!(
                rig.caught(r),
                "{} escaped the census under {}: {} corrupt, {} stuck, {} failed repairs",
                r.case_name,
                r.faults,
                r.corrupt,
                r.stuck,
                r.tally.repair_failures,
            );
            assert!(r.consistent > 0, "{} recovers nowhere", r.case_name);
        }
    }

    /// The fault rigs are clean under the fault-free crash model: their
    /// corruption is attributable to the fault class, not to a latently
    /// broken rig.
    #[test]
    fn fault_rigs_are_clean_without_their_fault() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let reports: Vec<_> = all()
            .iter()
            .filter(|r| r.case.name.starts_with("fmut:"))
            .map(|r| check_case(&r.case, &budget(), 42))
            .collect();
        std::panic::set_hook(prev);
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert!(
                r.clean(),
                "{} must be clean without faults ({} corrupt, {} stuck)",
                r.case_name,
                r.corrupt,
                r.stuck,
            );
        }
    }

    /// Crc32 certification masks the early parity under every fault
    /// class: each rung-1 repair from the wrong lanes fails and escalates
    /// to recompute, so no state is corrupt.
    #[test]
    fn masked_rig_stays_clean_under_every_fault_class() {
        let rig = parity_before_data();
        for faults in ["torn", "media", "media-burst", "nested"] {
            let b = Budget {
                faults: FaultConfig::parse(faults).unwrap(),
                ..budget()
            };
            let r = check_case(&rig.case, &b, 42);
            assert!(r.clean(), "{} under {faults}: {}", rig.case.name, r.corrupt);
            assert_eq!(r.tally.repaired_lines, 0, "{faults}");
            assert_eq!(r.tally.repair_failures, r.tally.escalations, "{faults}");
        }
    }

    #[test]
    fn every_rig_names_its_function() {
        for r in &all() {
            assert!(
                SOURCE.contains(&format!("pub fn {}() -> Rig", r.function())),
                "{} has no function of its name",
                r.case.name
            );
        }
    }
}
