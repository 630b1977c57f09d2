//! Mutation tests: the sanitizer audits every rig of the shared registry
//! ([`lp_crashmc::rigs`]) and must flag exactly the rule each rig
//! declares, proving each rule has teeth; a disciplined control must stay
//! silent.
//!
//! Under the simulator's ADR model several rigs still produce correct
//! *simulated* output — the point is that the checker catches the latent
//! discipline bug that real hardware would punish.

use std::sync::{Arc, Mutex};

use lp_core::scheme::{Scheme, SchemeHandles};
use lp_core::track::{RangeRole, TrackedRange};
use lp_crashmc::mc::PreparedCase;
use lp_crashmc::rigs::{self, Rig};
use lp_sim::config::MachineConfig;
use lp_sim::machine::Machine;
use lp_sim::prelude::CrashTrigger;

use crate::checker::Checker;
use crate::report::{Rule, ViolationReport};

/// The memory operation after which the R7 rig's forward run crashes,
/// mid-region, before its recovery is audited.
const RECOVERY_CRASH_POINT: u64 = 5;

/// One rig's audit.
#[derive(Debug)]
pub struct MutationOutcome {
    /// The rig's name.
    pub name: String,
    /// The rule the rig must trip, `None` when the checker must stay
    /// silent.
    pub expected: Option<Rule>,
    /// The checker's verdict.
    pub report: ViolationReport,
}

impl MutationOutcome {
    /// Whether the checker flagged exactly the expected rule (nothing,
    /// when none is expected).
    pub fn holds(&self) -> bool {
        self.report
            .counts()
            .into_iter()
            .map(|(rule, _)| rule)
            .eq(self.expected)
    }
}

/// Run `run` on `machine` with a fresh checker installed; return the
/// verdict.
fn watch(
    machine: &mut Machine,
    scheme: Scheme,
    ranges: Vec<TrackedRange>,
    label: &str,
    run: impl FnOnce(&mut Machine),
) -> ViolationReport {
    let checker = Arc::new(Mutex::new(Checker::new(scheme, ranges, label)));
    machine.set_observer(checker.clone());
    run(machine);
    machine.clear_observer();
    let report = checker
        .lock()
        .expect("no observer panicked holding the checker")
        .report();
    report
}

/// Audit `rig`'s crash-free run. The R7 rig's bug lives in recovery, so
/// its run crashes mid-region and the audit covers its own recovery.
///
/// # Panics
///
/// Panics if the rig declares an unknown rule id.
pub fn audit(rig: &Rig) -> MutationOutcome {
    let expected = rig.check.map(|id| {
        Rule::from_id(id).unwrap_or_else(|| panic!("{}: unknown rule {id}", rig.case.name))
    });
    let PreparedCase {
        mut machine,
        plans,
        recover,
        ..
    } = (rig.case.build)();
    let in_recovery = expected == Some(Rule::R7);
    let report = watch(
        &mut machine,
        rig.scheme,
        rig.ranges.clone(),
        &rig.case.name,
        |m| {
            if in_recovery {
                m.set_crash_trigger(CrashTrigger::AfterMemOps(RECOVERY_CRASH_POINT));
            }
            m.run(plans);
            if in_recovery {
                recover(m);
            }
        },
    );
    MutationOutcome {
        name: rig.case.name.clone(),
        expected,
        report,
    }
}

/// Control: a two-core region shape like the rigs' but fully disciplined
/// — the checker must stay silent.
pub fn disciplined_control(scheme: Scheme) -> ViolationReport {
    let mut machine = Machine::new(
        MachineConfig::default()
            .with_cores(2)
            .with_nvmm_bytes(1 << 20),
    );
    let arr = machine.alloc::<f64>(64).expect("control array");
    let handles = SchemeHandles::alloc(&mut machine, scheme, 16, 2, 64).expect("control handles");
    let mut ranges = vec![TrackedRange::of("data", arr, RangeRole::Protected)];
    ranges.extend(handles.ranges());
    let mut plans = machine.plans();
    for (core, plan) in plans.iter_mut().enumerate() {
        let tp = handles.thread(core);
        plan.region(move |ctx| {
            let mut rs = tp.begin(ctx, core);
            // 8 f64s per line: cores write disjoint lines.
            for i in 0..8 {
                tp.store(ctx, &mut rs, arr, core * 8 + i, (i + 1) as f64);
            }
            tp.commit(ctx, rs);
        });
    }
    let label = format!("control under {scheme}");
    watch(&mut machine, scheme, ranges, &label, |m| {
        m.run(plans);
    })
}

/// Audit every registered rig.
pub fn run_all() -> Vec<MutationOutcome> {
    rigs::all().iter().map(audit).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_core::checksum::ChecksumKind;

    #[test]
    fn every_mutation_is_flagged_with_its_rule() {
        for outcome in run_all() {
            assert!(
                outcome.holds(),
                "{} should flag exactly {:?}:\n{}",
                outcome.name,
                outcome.expected,
                outcome.report
            );
        }
    }

    #[test]
    fn every_rig_rule_id_parses() {
        for rig in rigs::all() {
            if let Some(id) = rig.check {
                assert!(Rule::from_id(id).is_some(), "{}: {id}", rig.case.name);
            }
        }
    }

    #[test]
    fn mutations_cover_all_rules() {
        let covered: std::collections::HashSet<Rule> =
            run_all().into_iter().filter_map(|o| o.expected).collect();
        assert_eq!(covered.len(), Rule::ALL.len());
    }

    #[test]
    fn disciplined_controls_are_clean() {
        for scheme in [
            Scheme::Base,
            Scheme::lazy_default(),
            Scheme::lazy_parity_default(),
            Scheme::LazyEagerCk(ChecksumKind::Modular),
            Scheme::Eager,
            Scheme::Wal,
        ] {
            let report = disciplined_control(scheme);
            assert!(report.is_clean(), "{report}");
            assert!(report.events_seen > 0, "{scheme}: no events observed");
        }
    }

    #[test]
    fn mutation_names_are_unique() {
        let names: std::collections::HashSet<String> =
            run_all().into_iter().map(|o| o.name).collect();
        assert_eq!(names.len(), rigs::all().len());
    }
}
