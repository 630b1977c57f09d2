//! A recycled post-crash machine must be indistinguishable from a fresh
//! fork: for every kernel case, crashed at 30%, 60% and 90% of its
//! crash-free memory ops, recovering the crash image on
//! `spare.refork(&template, image)` must give the same `RecoveryStats`
//! (cycles included), the same `SimStats` and the same drained NVMM heap
//! as recovering it on `template.fork_with_image(image)` — whatever state
//! the spare was left in.

use lp_core::recovery::RecoveryStats;
use lp_core::scheme::Scheme;
use lp_crashmc::cases::{all_kernel_cases, kernel_case};
use lp_crashmc::mc::{check_case, check_cases, Budget, BudgetMode, McReport, PreparedCase};
use lp_kernels::driver::{KernelId, Scale};
use lp_sim::addr::{LineAddr, LINE_BYTES};
use lp_sim::fault::FaultConfig;
use lp_sim::machine::{Machine, Outcome};
use lp_sim::mem::Nvmm;
use lp_sim::memsys::CrashTrigger;
use lp_sim::stats::SimStats;

/// What one recovery left behind, for comparison.
#[derive(Debug, PartialEq)]
struct Recovered {
    stats: RecoveryStats,
    sim: SimStats,
    heap: Vec<u8>,
    verified: bool,
}

fn recover_on(mut m: Machine, case: &PreparedCase) -> (Recovered, Machine) {
    let stats = (case.recover)(&mut m);
    m.drain_caches();
    let sim = m.stats();
    let mut heap = Vec::new();
    let mut buf = [0u8; LINE_BYTES];
    for line in 0..m.heap_used().div_ceil(LINE_BYTES as u64) {
        m.mem().nvmm().read_line(LineAddr(line), &mut buf);
        heap.extend_from_slice(&buf);
    }
    let verified = (case.verify)(&m);
    let out = Recovered {
        stats,
        sim,
        heap,
        verified,
    };
    (out, m)
}

/// The three kinds of spare a work unit can hand back: one left by a
/// clean recovery, one powered off mid-recovery by a crash trigger, and
/// one holding a poisoned line.
fn spares(template: &Machine, image: &Nvmm, case: &PreparedCase, rec_ops: u64) -> Vec<Machine> {
    let (_, clean) = recover_on(template.fork_with_image(image.fork()), case);

    let mut crashed = template.fork_with_image(image.fork());
    crashed.set_crash_trigger(CrashTrigger::AfterMemOps(rec_ops / 2 + 1));
    (case.recover)(&mut crashed);
    assert!(
        rec_ops < 2 || crashed.mem().crashed(),
        "the trigger must fire mid-recovery"
    );

    let (_, mut poisoned) = recover_on(template.fork_with_image(image.fork()), case);
    let line = case.poison_lines.first().copied().unwrap_or(LineAddr(0));
    poisoned.mem_mut().poison_line(line);
    assert!(poisoned.mem().has_poisoned_lines());

    vec![clean, crashed, poisoned]
}

#[test]
fn refork_equals_a_fresh_fork_on_every_kernel_case() {
    let cases = all_kernel_cases(Scale::Micro);
    assert_eq!(cases.len(), 20);
    let mut states = 0;
    for case in &cases {
        let mut reference = (case.build)();
        let plans = std::mem::take(&mut reference.plans);
        assert_eq!(reference.machine.run(plans), Outcome::Completed);
        let total = reference.machine.mem().mem_ops();
        for pct in [30, 60, 90] {
            let at = total * pct / 100;
            let mut inst = (case.build)();
            inst.machine
                .set_crash_trigger(CrashTrigger::AfterMemOps(at));
            let plans = std::mem::take(&mut inst.plans);
            assert_eq!(inst.machine.run(plans), Outcome::Crashed);
            let image = inst.machine.nvmm_fork();
            let template = &inst.machine;

            let fresh = template.fork_with_image(image.fork());
            let (want, fresh) = recover_on(fresh, &inst);
            assert!(want.verified, "{} at {pct}%: fresh fork", case.name);
            let rec_ops = fresh.mem().mem_ops();
            let kinds = ["clean", "crashed", "poisoned"];
            for (kind, spare) in kinds.iter().zip(spares(template, &image, &inst, rec_ops)) {
                let (got, _) = recover_on(spare.refork(template, image.fork()), &inst);
                assert_eq!(
                    got, want,
                    "{} at {pct}%: refork of a {kind} spare differs from a fresh fork",
                    case.name
                );
            }
            states += 1;
        }
    }
    assert_eq!(states, 60);
}

/// The work units of one `check_cases` call hand their spare machines on
/// to each other, across cases too. Several cases on one machine
/// configuration, checked together at one and two threads, must report
/// exactly what each case reports when checked alone. (Under faults a
/// case's draws depend on its position in the list, so there the pinned
/// fault-campaign verdicts of `smoke_verdicts` cover the shared spares.)
#[test]
fn pooled_spares_leave_every_report_unchanged() {
    let cases = vec![
        kernel_case(KernelId::Tmm, Scheme::lazy_default(), Scale::Micro),
        kernel_case(KernelId::Fft, Scheme::Eager, Scale::Micro),
        kernel_case(KernelId::Cholesky, Scheme::Wal, Scale::Micro),
        kernel_case(
            KernelId::Conv2d,
            Scheme::lazy_parity_default(),
            Scale::Micro,
        ),
    ];
    let cfg = (cases[0].build)().machine.cfg().clone();
    for case in &cases {
        assert_eq!(
            *(case.build)().machine.cfg(),
            cfg,
            "{}: the cases must share one configuration",
            case.name
        );
    }
    let budget = Budget {
        mode: BudgetMode::Sampled(8),
        k: 3,
        faults: FaultConfig::none(),
        dedup: true,
    };
    let alone: Vec<McReport> = cases.iter().map(|c| check_case(c, &budget, 42)).collect();
    for threads in [1, 2] {
        assert_eq!(
            check_cases(&cases, &budget, 42, threads),
            alone,
            "threads {threads}"
        );
    }
}
