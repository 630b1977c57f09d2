//! Differential cross-validation against the dynamic verification stack.
//!
//! The rig registry ([`lp_crashmc::rigs`]) holds every deliberately broken
//! discipline the dynamic stack provably catches, each with its static
//! verdict. The differential lints the registry's own source once and
//! requires every statically decidable rig's S rule inside that rig's
//! function, at a real file:line span; rigs whose bug only exists at
//! runtime carry the reason instead. Each efficiency fixture must trip its
//! W/S6 rule, and the clean control fixture must lint to zero findings.

use std::fmt;

use lp_crashmc::rigs::{self, LintVerdict};

use crate::analysis::analyze_source;
use crate::report::{LintReport, SRule, Twin};

/// The clean control fixture: correct LP/EP/recovery idioms that must
/// lint to zero findings.
pub const CLEAN_FIXTURE: (&str, &str) = (
    "clean_control.rs",
    include_str!("../fixtures/clean_control.rs"),
);

/// Where findings in the registry source are reported.
const RIGS_LABEL: &str = "crates/crashmc/src/rigs.rs";

/// The lint report over the registry source.
pub fn rigs_report() -> LintReport {
    analyze_source(rigs::SOURCE, RIGS_LABEL, "rigs")
}

/// Efficiency expectations: every W/S6 fixture must be flagged with its
/// rule. Unlike the rig fixtures, these have no `lp_check` rule as
/// ground truth — their dynamic twin is a simulator counter, and
/// `tests/wrule_twins.rs` pins the flush/fence drop when each flagged
/// redundancy is removed (S6 twins R2 and rides along here because its
/// fixture exercises the same checksum-coverage lattice).
pub fn efficiency_expectations() -> Vec<(&'static str, &'static str, &'static str, SRule)> {
    vec![
        (
            "eff:redundant_flush",
            "w1_redundant_flush.rs",
            include_str!("../fixtures/w1_redundant_flush.rs"),
            SRule::W1RedundantFlush,
        ),
        (
            "eff:redundant_fence",
            "w2_redundant_fence.rs",
            include_str!("../fixtures/w2_redundant_fence.rs"),
            SRule::W2RedundantFence,
        ),
        (
            "eff:range_shadowed_flush",
            "w3_range_shadowed_flush.rs",
            include_str!("../fixtures/w3_range_shadowed_flush.rs"),
            SRule::W3ShadowedFlush,
        ),
        (
            "eff:unrolled_flush",
            "w4_unrolled_flush.rs",
            include_str!("../fixtures/w4_unrolled_flush.rs"),
            SRule::W4MissedCoalescing,
        ),
        (
            "eff:loop_barrier",
            "w4_loop_barrier.rs",
            include_str!("../fixtures/w4_loop_barrier.rs"),
            SRule::W4MissedCoalescing,
        ),
        (
            "eff:lp_unfolded_store",
            "s6_lp_unfolded_store.rs",
            include_str!("../fixtures/s6_lp_unfolded_store.rs"),
            SRule::S6UncoveredData,
        ),
    ]
}

/// One rig's differential result.
#[derive(Debug, Clone)]
pub struct RigResult {
    /// Rig name.
    pub rig: String,
    /// Expected rule, `None` for dynamic-only rigs.
    pub expected: Option<SRule>,
    /// Whether the expectation held (dynamic-only rigs trivially pass).
    pub ok: bool,
    /// Human-readable outcome line.
    pub note: String,
}

/// Outcome of a full differential run.
#[derive(Debug, Clone)]
pub struct DifferentialOutcome {
    /// Per-rig results, in registration order.
    pub rigs: Vec<RigResult>,
    /// Whether the clean control fixture linted to zero findings.
    pub clean_ok: bool,
    /// Clean fixture findings (empty when `clean_ok`).
    pub clean_note: String,
}

impl DifferentialOutcome {
    /// All static expectations held and the control fixture is clean.
    pub fn pass(&self) -> bool {
        self.clean_ok && self.rigs.iter().all(|r| r.ok)
    }

    /// Number of rigs decided statically.
    pub fn static_count(&self) -> usize {
        self.rigs.iter().filter(|r| r.expected.is_some()).count()
    }
}

impl fmt::Display for DifferentialOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "lp-lint differential: {}/{} rigs statically decidable",
            self.static_count(),
            self.rigs.len()
        )?;
        for r in &self.rigs {
            let mark = if r.ok { "ok " } else { "FAIL" };
            writeln!(f, "  [{mark}] {:<28} {}", r.rig, r.note)?;
        }
        let mark = if self.clean_ok { "ok " } else { "FAIL" };
        writeln!(f, "  [{mark}] {:<28} {}", "clean control", self.clean_note)?;
        writeln!(f, "result: {}", if self.pass() { "PASS" } else { "FAIL" })
    }
}

/// Run the full differential: every static rig against its function in
/// the registry source, every efficiency fixture against its rule, plus
/// the clean control.
pub fn run_differential() -> DifferentialOutcome {
    let report = rigs_report();
    let mut rigs: Vec<RigResult> = rigs::all()
        .iter()
        .map(|rig| {
            let name = rig.case.name.clone();
            let dynamic = rig.check.unwrap_or("none");
            let id = match rig.lint {
                LintVerdict::Static(id) => id,
                LintVerdict::DynamicOnly(reason) => {
                    return RigResult {
                        rig: name,
                        expected: None,
                        ok: true,
                        note: format!("dynamic-only ({dynamic}): {reason}"),
                    }
                }
            };
            let rule = SRule::from_id(id);
            let in_fn: Vec<_> = report
                .findings
                .iter()
                .filter(|f| f.function == rig.function() && f.line > 0)
                .collect();
            match in_fn.iter().find(|f| Some(f.rule) == rule) {
                Some(hit) => RigResult {
                    rig: name,
                    expected: rule,
                    ok: true,
                    note: format!(
                        "{id} (dynamic {dynamic}) flagged at {}:{}",
                        hit.file, hit.line
                    ),
                },
                None => RigResult {
                    rig: name,
                    expected: rule,
                    ok: false,
                    note: format!(
                        "expected {id} in fn {}, got: {}",
                        rig.function(),
                        if in_fn.is_empty() {
                            "no findings".to_string()
                        } else {
                            in_fn
                                .iter()
                                .map(|f| f.rule.id())
                                .collect::<Vec<_>>()
                                .join(",")
                        }
                    ),
                },
            }
        })
        .collect();
    for (rig, file, src, rule) in efficiency_expectations() {
        let stem = file.trim_end_matches(".rs");
        let label = format!("fixtures/{file}");
        let report = analyze_source(src, &label, stem);
        let twin = match rule.dynamic_twin() {
            Twin::DynamicRule(r) => format!("dynamic {r}"),
            Twin::Counter(c) => format!("{c} counter"),
        };
        rigs.push(match report.of_rule(rule).first() {
            Some(hit) if hit.line > 0 => RigResult {
                rig: rig.into(),
                expected: Some(rule),
                ok: true,
                note: format!(
                    "{} ({twin}) flagged at {}:{}",
                    rule.id(),
                    hit.file,
                    hit.line
                ),
            },
            _ => RigResult {
                rig: rig.into(),
                expected: Some(rule),
                ok: false,
                note: format!(
                    "expected {} on {label}, got {} finding(s)",
                    rule.id(),
                    report.findings.len()
                ),
            },
        });
    }
    let clean = analyze_source(
        CLEAN_FIXTURE.1,
        "fixtures/clean_control.rs",
        "clean_control",
    );
    DifferentialOutcome {
        rigs,
        clean_ok: clean.is_clean(),
        clean_note: if clean.is_clean() {
            "zero findings".to_string()
        } else {
            format!(
                "{} unexpected finding(s): {}",
                clean.findings.len(),
                clean
                    .findings
                    .iter()
                    .map(|f| format!("{} at line {}", f.rule.id(), f.line))
                    .collect::<Vec<_>>()
                    .join("; ")
            )
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_check::report::Rule;

    #[test]
    fn differential_passes_end_to_end() {
        let out = run_differential();
        assert!(out.pass(), "{out}");
    }

    #[test]
    fn at_least_six_rigs_are_static() {
        let out = run_differential();
        assert!(out.static_count() >= 6, "{}", out.static_count());
    }

    /// The registry's rule ids, parsed: its lp-check rule and, for static
    /// rigs, its S rule.
    fn parsed_rigs() -> Vec<(String, Option<Rule>, LintVerdict)> {
        rigs::all()
            .into_iter()
            .map(|r| {
                let check = r.check.map(|id| {
                    Rule::from_id(id).unwrap_or_else(|| panic!("{}: unknown {id}", r.case.name))
                });
                if let LintVerdict::Static(id) = r.lint {
                    assert!(
                        SRule::from_id(id).is_some(),
                        "{}: unknown {id}",
                        r.case.name
                    );
                }
                (r.case.name, check, r.lint)
            })
            .collect()
    }

    /// The S rules whose dynamic twin is lp-check rule `r`.
    fn static_twins(r: Rule) -> Vec<&'static str> {
        SRule::all()
            .into_iter()
            .filter(|s| s.dynamic_twin() == Twin::DynamicRule(r.id()))
            .map(SRule::id)
            .collect()
    }

    #[test]
    fn static_rules_agree_with_dynamic_twins() {
        // The S rule each static rig trips must twin the dynamic rule the
        // rig was built around.
        for (name, check, lint) in parsed_rigs() {
            if let LintVerdict::Static(id) = lint {
                let rule = check.unwrap_or_else(|| panic!("{name}: static rig without a rule"));
                assert!(
                    static_twins(rule).contains(&id),
                    "{name} twin mismatch: {id} not in {:?}",
                    static_twins(rule)
                );
            }
        }
    }

    /// A rig is marked dynamic-only only when its rule family is runtime
    /// dependent (no S rule twins it) or its bug is injected by the fault
    /// model rather than visible in persist ordering (`fmut:` rigs).
    #[test]
    fn dynamic_only_rigs_are_justified() {
        for (name, check, lint) in parsed_rigs() {
            if let LintVerdict::DynamicOnly(reason) = lint {
                let fault_injected = name.starts_with("fmut:");
                let no_twin = check.is_some_and(|r| static_twins(r).is_empty());
                assert!(
                    fault_injected || no_twin,
                    "{name} marked dynamic-only without justification"
                );
                assert!(!reason.is_empty(), "{name}");
            }
        }
    }

    #[test]
    fn twin_mapping_is_total_and_round_trips() {
        // Every safety rule twins a real lp-check rule, and every
        // efficiency rule a counter `tests/wrule_twins.rs` measures.
        for s in SRule::all() {
            match s.dynamic_twin() {
                Twin::DynamicRule(rid) => {
                    assert!(
                        Rule::from_id(rid).is_some(),
                        "{} twins unknown {rid}",
                        s.id()
                    );
                }
                Twin::Counter(c) => {
                    assert!(c == "flushes" || c == "fences", "{}: {c}", s.id());
                }
            }
        }
        // Which rules lack a twin and which have two is pinned by
        // `report::tests::static_twins_are_valid_s_rules`.
    }

    #[test]
    fn every_efficiency_fixture_is_expected_exactly_once() {
        let exp = efficiency_expectations();
        let mut files: Vec<&str> = exp.iter().map(|(_, f, _, _)| *f).collect();
        files.sort_unstable();
        files.dedup();
        assert_eq!(files.len(), exp.len());
        // Every W rule has at least one fixture; S6 rides along.
        for rule in SRule::all().into_iter().filter(|r| r.id().starts_with('W')) {
            assert!(
                exp.iter().any(|(_, _, _, r)| *r == rule),
                "no efficiency fixture for {}",
                rule.id()
            );
        }
    }
}
