//! Golden-file tests: the JSON and pretty renderings of the lint reports
//! over the mutation-rig registry and the efficiency fixtures are pinned
//! byte-for-byte, so any drift in spans, wording, or key order is a
//! reviewed diff rather than a silent change.
//!
//! Regenerate after an intentional format change with
//! `LP_LINT_BLESS=1 cargo test -p lp-lint --test golden`.

use std::path::{Path, PathBuf};

use lp_lint::differential::rigs_report;
use lp_lint::{analyze_source, default_targets, lint_paths};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn golden_check(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("LP_LINT_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with LP_LINT_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        actual, want,
        "golden mismatch for {name}; if intentional, regenerate with LP_LINT_BLESS=1"
    );
}

/// The report over the registry source pins every static rig's S1–S5/S7
/// finding, together with what the honest recoveries linted in place
/// add.
#[test]
fn rigs_json_golden() {
    let mut json = rigs_report().to_json();
    json.push('\n');
    golden_check("rigs.json", &json);
}

#[test]
fn rigs_pretty_golden() {
    let pretty = rigs_report().to_string();
    golden_check("rigs.txt", &pretty);
}

/// One combined report over the W1–W4/S6 efficiency-rule fixtures, linted
/// through the same two-pass (summaries-first) pipeline as the real tree.
fn efficiency_report() -> lp_lint::LintReport {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let paths: Vec<PathBuf> = [
        "w1_redundant_flush.rs",
        "w2_redundant_fence.rs",
        "w3_range_shadowed_flush.rs",
        "w4_unrolled_flush.rs",
        "w4_loop_barrier.rs",
        "s6_lp_unfolded_store.rs",
    ]
    .iter()
    .map(|n| root.join("fixtures").join(n))
    .collect();
    lint_paths(&paths, &root).expect("lint fixtures")
}

#[test]
fn efficiency_fixtures_json_golden() {
    let mut json = efficiency_report().to_json();
    json.push('\n');
    golden_check("efficiency.json", &json);
}

#[test]
fn efficiency_fixtures_pretty_golden() {
    let pretty = efficiency_report().to_string();
    golden_check("efficiency.txt", &pretty);
}

/// Bugs lp-lint does not catch yet: a fixture under
/// `fixtures/known_misses/`, the rule that should flag it, and the tree
/// code of the same shape.
const KNOWN_MISSES: &[(&str, lp_lint::SRule, &str)] = &[(
    "w4_trait_rebuild",
    lp_lint::SRule::W4MissedCoalescing,
    "the per-block Kernel::rebuild in Conv2d::recover_marker_based",
)];

/// Pins each known miss, so this fails once lp-lint closes the gap: then
/// move the fixture up into `fixtures/`, list it in
/// `differential::efficiency_expectations`, and fix the tree code.
#[test]
fn known_misses_stay_recorded() {
    for &(stem, rule, tree) in KNOWN_MISSES {
        let report = analyze_source(
            &fixture(&format!("known_misses/{stem}.rs")),
            &format!("fixtures/known_misses/{stem}.rs"),
            stem,
        );
        assert!(
            !report.findings.iter().any(|v| v.rule == rule),
            "lp-lint now flags {stem} ({}): promote the fixture and fix {tree}:\n{report}",
            rule.id()
        );
    }
}

#[test]
fn clean_tree_has_zero_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let targets = default_targets(&root).expect("enumerate lint surface");
    assert!(targets.len() >= 10, "lint surface unexpectedly small");
    let report = lint_paths(&targets, &root).expect("lint tree");
    assert!(report.is_clean(), "clean tree must lint clean:\n{report}");
    assert_eq!(report.files.len(), targets.len());
}

#[test]
fn every_buggy_fixture_is_dirty_and_control_is_clean() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let mut fixtures: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    fixtures.sort();
    assert!(fixtures.len() >= 7, "{fixtures:?}");
    for f in fixtures {
        let stem = f.file_stem().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&f).unwrap();
        let report = analyze_source(&src, &stem, &stem);
        if stem == "clean_control" {
            assert!(report.is_clean(), "{report}");
        } else {
            assert!(!report.is_clean(), "{stem} should have findings");
        }
    }
}
