//! Fault-campaign mutation rigs: three tiny programs, each violating one
//! hardening rule that only a specific *fault class* can expose. The
//! clean ADR crash model finds nothing wrong with them — every rig is
//! paired with the [`FaultConfig`] the campaign must enable for the
//! checker to exhibit a corrupt state. They are the fault subsystem's
//! teeth, the same way [`crate::mutations`] is the clean checker's.
//!
//! * [`torn_blind_word`] — a checksum that skips a word sharing a line
//!   with a folded one; only *torn* (word-granular) persists can split
//!   the line and slip the skipped word past the audit.
//! * [`poison_pattern_collision`] — a recovery that audits by checksum
//!   alone, skipping the poison quarantine; only *media* faults can make
//!   the poison pattern collide with a stored Modular sum.
//! * [`marker_first_recovery`] — a recovery that persists its progress
//!   marker before the data it vouches for; only a *nested* crash in
//!   that window makes the re-entry skip work the marker claims done.

use lp_core::checksum::{checksum_f64s, ChecksumKind, RunningChecksum};
use lp_core::recovery::{region_consistent, RecoveryStats};
use lp_core::scheme::Scheme;
use lp_sim::fault::FaultConfig;
use lp_sim::mem::POISON_WORD;

use crate::mc::{CheckCase, PreparedCase};
use crate::mutations::rig;

const CK: ChecksumKind = ChecksumKind::Modular;

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
pub fn torn_blind_word() -> (CheckCase, FaultConfig) {
    let case = CheckCase {
        name: "fmut:torn_blind_word".into(),
        build: Box::new(|| {
            let (machine, arr, handles) = rig(1, Scheme::Lazy(CK));
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
        }),
    };
    let faults = FaultConfig {
        torn: true,
        ..FaultConfig::none()
    };
    (case, faults)
}

/// Eight `u64` values on one line whose Modular sum equals the sum of
/// eight poison words. Honest recovery quarantines poisoned lines before
/// trusting any checksum; this recovery skips the quarantine, the poison
/// pattern folds to the stored sum, and the audit blesses unreadable
/// data.
pub fn poison_pattern_collision() -> (CheckCase, FaultConfig) {
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
    let case = CheckCase {
        name: "fmut:poison_pattern_collision".into(),
        build: Box::new(|| {
            let (mut machine, _arr, handles) = rig(1, Scheme::Lazy(CK));
            let table = handles.table;
            let vals = machine.alloc::<u64>(8).expect("u64 rig array");
            for i in 0..8 {
                machine.poke(vals, i, 0);
            }
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
        }),
    };
    let faults = FaultConfig {
        media: true,
        ..FaultConfig::none()
    };
    (case, faults)
}

/// An EP-style recovery that persists its done-marker *before* re-doing
/// the data it vouches for. Under single-crash exploration the whole
/// recovery is atomic and the bug invisible; a nested crash between the
/// marker flush and the last data flush makes the re-entry trust the
/// marker and skip the repair.
pub fn marker_first_recovery() -> (CheckCase, FaultConfig) {
    const KEY: usize = 6;
    const VALS: [(usize, f64); 4] = [(0, 7.0), (8, 5.5), (16, -2.25), (24, 11.0)];
    let case = CheckCase {
        name: "fmut:marker_first_recovery".into(),
        build: Box::new(|| {
            let (machine, arr, handles) = rig(1, Scheme::Eager);
            let markers = handles.markers;
            let mut plans = machine.plans();
            plans[0].region(move |ctx| {
                ctx.region_begin(KEY);
                for (i, v) in VALS {
                    ctx.store(arr, i, v);
                    ctx.clflushopt(arr.addr(i));
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
                    if m.peek(markers, 0) != KEY as u64 + 1 {
                        st.regions_inconsistent = 1;
                        st.recomputed_regions = 1;
                        let mut ctx = m.ctx(0);
                        // BUG: the marker becomes durable before the data
                        // it promises; a crash in between convinces the
                        // next attempt there is nothing left to repair.
                        ctx.store(markers, 0, KEY as u64 + 1);
                        ctx.clflushopt(markers.addr(0));
                        ctx.sfence();
                        for (i, v) in VALS {
                            ctx.store(arr, i, v);
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
        }),
    };
    let faults = FaultConfig {
        nested: true,
        nested_bound: FaultConfig::DEFAULT_NESTED_BOUND,
        ..FaultConfig::none()
    };
    (case, faults)
}

/// All three fault-mutation rigs with the fault class each one needs.
pub fn all() -> Vec<(CheckCase, FaultConfig)> {
    vec![
        torn_blind_word(),
        poison_pattern_collision(),
        marker_first_recovery(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mc::{check_case, Budget, BudgetMode};

    fn budget(faults: FaultConfig) -> Budget {
        Budget {
            mode: BudgetMode::Exhaustive,
            k: 4,
            faults,
            dedup: true,
        }
    }

    /// Every fault-mutation rig must be flagged *with* its fault class
    /// and clean *without* it — the corruption is attributable to the
    /// fault model, not to a latently broken rig.
    #[test]
    fn every_fault_mutation_is_flagged_only_under_its_fault() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let with: Vec<_> = all()
            .iter()
            .map(|(c, f)| check_case(c, &budget(*f), 42))
            .collect();
        let without: Vec<_> = all()
            .iter()
            .map(|(c, _)| check_case(c, &budget(FaultConfig::none()), 42))
            .collect();
        std::panic::set_hook(prev);
        for r in &with {
            assert!(
                r.flagged(),
                "{} found no corrupt/stuck state in {} states under its fault class",
                r.case_name,
                r.states_checked,
            );
        }
        for r in &without {
            assert!(
                r.clean(),
                "{} must be clean under the fault-free crash model \
                 ({} corrupt, {} stuck)",
                r.case_name,
                r.corrupt,
                r.stuck,
            );
        }
    }
}
