//! The parallel exploration engine's determinism contract: the same
//! `--seed` produces identical reports at any thread count.

use lp_crashmc::cases::kernel_case;
use lp_crashmc::mc::{check_cases, Budget, BudgetMode};
use lp_crashmc::rigs;
use lp_kernels::driver::{KernelId, Scale};
use lp_sim::fault::FaultConfig;

fn budget() -> Budget {
    Budget {
        mode: BudgetMode::Sampled(8),
        k: 3,
        faults: FaultConfig::none(),
        dedup: true,
    }
}

/// Render a report set the way `lp-crashmc` prints it, so the comparison
/// covers exactly what a user would diff.
fn render(reports: &[lp_crashmc::mc::McReport]) -> String {
    let mut out = String::new();
    for r in reports {
        out.push_str(&r.summary_line());
        out.push('\n');
        for ex in &r.examples {
            out.push_str(&format!(
                "    {:?} at op {} (census {}, subset {})\n",
                ex.class, ex.op, ex.census, ex.subset
            ));
        }
    }
    out
}

#[test]
fn kernel_reports_are_byte_identical_across_thread_counts() {
    let cases = vec![
        kernel_case(
            KernelId::Tmm,
            lp_core::scheme::Scheme::lazy_default(),
            Scale::Micro,
        ),
        kernel_case(
            KernelId::Gauss,
            lp_core::scheme::Scheme::Eager,
            Scale::Micro,
        ),
    ];
    let seq = check_cases(&cases, &budget(), 42, 1);
    let par = check_cases(&cases, &budget(), 42, 8);
    assert_eq!(seq, par, "structured reports must match exactly");
    assert_eq!(render(&seq), render(&par), "rendered reports must match");
}

#[test]
fn mutation_reports_are_byte_identical_and_still_flagged() {
    // Recovery legitimately panics on some corrupt images; silence the
    // default hook as the binary does.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    // Each rig runs under its own fault class.
    let rigs = rigs::all();
    let runs: Vec<_> = rigs
        .iter()
        .map(|rig| {
            let (cases, b) = (std::slice::from_ref(&rig.case), rig.budget(&budget()));
            (check_cases(cases, &b, 7, 1), check_cases(cases, &b, 7, 8))
        })
        .collect();
    std::panic::set_hook(prev);
    for (rig, (seq, par)) in rigs.iter().zip(runs) {
        assert_eq!(seq, par);
        assert!(
            rig.caught(&par[0]),
            "{} must stay caught in parallel",
            rig.case.name
        );
    }
}

#[test]
fn faulted_reports_are_byte_identical_across_thread_counts() {
    // Fault RNG streams are keyed by (case, point, subset index), so
    // torn masks, flip positions, and nested-crash offsets must not move
    // when the work is spread (and re-chunked) across threads.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let b = Budget {
        faults: FaultConfig::parse("torn,media,nested").unwrap(),
        ..budget()
    };
    let cases = vec![
        kernel_case(
            KernelId::Cholesky,
            lp_core::scheme::Scheme::Wal,
            Scale::Micro,
        ),
        kernel_case(
            KernelId::Fft,
            lp_core::scheme::Scheme::lazy_default(),
            Scale::Micro,
        ),
    ];
    let seq = check_cases(&cases, &b, 42, 1);
    let par = check_cases(&cases, &b, 42, 8);
    std::panic::set_hook(prev);
    assert_eq!(seq, par, "faulted structured reports must match exactly");
    for r in &par {
        assert!(
            r.clean(),
            "{} must survive the fault campaign ({} corrupt, {} stuck)",
            r.case_name,
            r.corrupt,
            r.stuck,
        );
        assert!(r.tally.torn_states > 0 && r.tally.poisons > 0);
    }
}

#[test]
fn chunked_subset_exploration_matches_unchunked_counts() {
    // k = 8 forces multiple subset chunks per crash point; totals and
    // examples must still match the single-threaded walk.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let cases = vec![rigs::all().remove(0).case];
    let b = Budget {
        mode: BudgetMode::Sampled(4),
        k: 8,
        faults: FaultConfig::none(),
        dedup: true,
    };
    let seq = check_cases(&cases, &b, 3, 1);
    let par = check_cases(&cases, &b, 3, 6);
    std::panic::set_hook(prev);
    assert_eq!(seq, par);
}
