//! Pins the crashmc smoke verdicts for the kernel matrix: the explored
//! crash points, state counts, verdict classes, and dedup hits must be
//! byte-identical across simulator hot-path changes (the crash census,
//! snapshot-resume materialization, and recovery replay all ride on the
//! memory system, so any semantic drift there shows up here).
//!
//! A second golden pins the same smoke budget under the full fault
//! campaign (`torn,media-burst,nested`): nested-crash wipes, drains of
//! faulted images and LP+par's rung-1 repair scans, with every
//! [`lp_crashmc::mc::FaultTally`] counter.
//!
//! Regenerate (only for intentional exploration-model changes) with:
//!
//! ```text
//! LP_INVARIANCE_BLESS=1 cargo test -p lp-crashmc --test smoke_verdicts
//! ```

use lp_core::scheme::Scheme;
use lp_crashmc::cases::kernel_case;
use lp_crashmc::mc::{check_cases, Budget, BudgetMode, McReport};
use lp_kernels::driver::{KernelId, Scale};
use lp_sim::fault::FaultConfig;

/// Compare `actual` with `tests/goldens/<name>`, or rewrite the golden
/// when `LP_INVARIANCE_BLESS` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name);
    if std::env::var_os("LP_INVARIANCE_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir goldens");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); bless with LP_INVARIANCE_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "crashmc smoke verdicts drifted — the hot-path overhaul must keep \
         census/recovery semantics byte-identical"
    );
}

/// Smoke-budget reports for the five Micro kernels under `schemes`.
fn smoke_reports(schemes: &[Scheme], k: u32, faults: FaultConfig) -> Vec<McReport> {
    let cases: Vec<_> = KernelId::ALL
        .iter()
        .flat_map(|&kernel| {
            schemes
                .iter()
                .map(move |&s| kernel_case(kernel, s, Scale::Micro))
        })
        .collect();
    let budget = Budget {
        mode: BudgetMode::Smoke,
        k,
        faults,
        dedup: true,
    };
    check_cases(&cases, &budget, 42, 2)
}

#[test]
fn kernel_matrix_smoke_verdicts_pinned() {
    let reports = smoke_reports(
        &[Scheme::lazy_default(), Scheme::Eager, Scheme::Wal],
        3,
        FaultConfig::none(),
    );
    let mut lines = Vec::new();
    for r in &reports {
        let points: Vec<String> = r
            .points
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        lines.push(format!(
            "{} points=[{}] states={} consistent={} corrupt={} stuck={} dedup={} max_census={}",
            r.case_name,
            points.join(","),
            r.states_checked,
            r.consistent,
            r.corrupt,
            r.stuck,
            r.dedup_hits,
            r.max_census,
        ));
    }
    assert_golden("smoke_verdicts.txt", &format!("{}\n", lines.join("\n")));
}

#[test]
fn fault_campaign_smoke_verdicts_pinned() {
    let faults = FaultConfig::parse("torn,media-burst,nested").expect("fault classes");
    let reports = smoke_reports(
        &[
            Scheme::lazy_default(),
            Scheme::lazy_parity_default(),
            Scheme::Eager,
            Scheme::Wal,
        ],
        4,
        faults,
    );
    let mut lines = Vec::new();
    for r in &reports {
        let t = &r.tally;
        lines.push(format!(
            "{} states={} consistent={} corrupt={} stuck={} torn={} torn_words={} \
             flips={} flips_detected={} flips_benign={} flips_missed={} poisons={} \
             bursts={} poisons_detected={} poisons_scrubbed={} nested={} retries={} \
             retry_exhausted={} repaired={} repair_failures={} escalations={}",
            r.case_name,
            r.states_checked,
            r.consistent,
            r.corrupt,
            r.stuck,
            t.torn_states,
            t.torn_words_dropped,
            t.flips,
            t.flips_detected,
            t.flips_benign,
            t.flips_missed,
            t.poisons,
            t.bursts,
            t.poisons_detected,
            t.poisons_scrubbed,
            t.nested_crashes,
            t.retries,
            t.retry_exhausted,
            t.repaired_lines,
            t.repair_failures,
            t.escalations,
        ));
    }
    assert_golden("fault_verdicts.txt", &format!("{}\n", lines.join("\n")));
}
