//! Golden pin of the recovery ladder's every path, faulted and nested.
//!
//! Each kernel × {LP (Modular), LP+par (CRC-32), EP, WAL} is run at
//! `Scale::Micro` to the crash points of `recovery_idempotence.rs`, and
//! once to completion (drained, so every region is committed). Each such
//! image is then recovered under every regimen below, on a fresh fork of
//! the image:
//!
//! - `plain` — the crash image as it is;
//! - `poison` — the first repairable line poisoned (a media fault);
//! - `burst` — the first address-adjacent pair of repairable lines
//!   poisoned (a burst, which rung 1 cannot reconstruct);
//! - `flip` — one bit of the first flip-target line flipped (a silent
//!   media flip; Lazy schemes only, and skipped when the kernel has no
//!   flip targets at this scale).
//!
//! Every regimen runs once uninterrupted and once per truncation offset:
//! recovery cut short by a nested crash, then recovered again from
//! scratch. Each line pins every `RecoveryStats` counter (cycles
//! included), the recovery's own flushes, fences and memory ops, and the
//! verify verdict, so any change to what the ladder does — a rung taken
//! or skipped, one more simulated op — shows up as a diff. Regenerate
//! (only when recovery changes *on purpose*) with:
//!
//! ```text
//! LP_INVARIANCE_BLESS=1 cargo test --test recovery_ladder
//! ```

use lp_core::checksum::ChecksumKind;
use lp_core::recovery::RecoveryStats;
use lp_core::scheme::Scheme;
use lp_kernels::driver::{prepare_kernel, KernelId, PreparedKernel, Scale};
use lp_sim::addr::LineAddr;
use lp_sim::config::MachineConfig;
use lp_sim::fault::flip_bit;
use lp_sim::machine::{Machine, Outcome};
use lp_sim::prelude::CrashTrigger;

fn cfg() -> MachineConfig {
    MachineConfig::default().with_nvmm_bytes(4 << 20)
}

fn schemes() -> [Scheme; 4] {
    [
        Scheme::Lazy(ChecksumKind::Modular),
        Scheme::LazyParity(ChecksumKind::Crc32),
        Scheme::Eager,
        Scheme::Wal,
    ]
}

/// The forward crash points and recovery truncation offsets (memops) of
/// `recovery_idempotence.rs`.
const CRASH_OPS: [u64; 3] = [37, 501, 1203];
const TRUNCATE_OFFSETS: [u64; 2] = [29, 311];

/// The flipped bit: an exponent bit of the line's first word, so the
/// flipped value is far from the committed one.
const FLIP_BIT: usize = 60;

/// A media fault applied to the crash image before recovery.
#[derive(Clone, Copy)]
enum Fault {
    None,
    Poison(LineAddr),
    Burst(LineAddr, LineAddr),
    Flip(LineAddr),
}

impl Fault {
    fn name(self) -> &'static str {
        match self {
            Fault::None => "plain",
            Fault::Poison(_) => "poison",
            Fault::Burst(..) => "burst",
            Fault::Flip(_) => "flip",
        }
    }

    fn apply(self, m: &mut Machine) {
        match self {
            Fault::None => {}
            Fault::Poison(l) => m.mem_mut().poison_line(l),
            Fault::Burst(a, b) => {
                m.mem_mut().poison_line(a);
                m.mem_mut().poison_line(b);
            }
            Fault::Flip(l) => flip_bit(m.mem_mut().nvmm_mut(), l, FLIP_BIT),
        }
    }
}

/// The regimens a crash image of `pk` is recovered under.
fn faults(pk: &PreparedKernel) -> Vec<Fault> {
    let mut out = vec![Fault::None, Fault::Poison(pk.poison_lines[0])];
    if let Some(w) = pk.poison_lines.windows(2).find(|w| w[1].0 == w[0].0 + 1) {
        out.push(Fault::Burst(w[0], w[1]));
    }
    let lazy = matches!(pk.scheme, Scheme::Lazy(_) | Scheme::LazyParity(_));
    if lazy && !pk.flip_lines.is_empty() {
        out.push(Fault::Flip(pk.flip_lines[0]));
    }
    out
}

/// One recovery's counters plus its own flushes, fences and memory ops.
fn recover(pk: &PreparedKernel, m: &mut Machine) -> String {
    let _ = m.take_stats();
    let ops0 = m.mem().mem_ops();
    let r: RecoveryStats = (pk.recover)(m);
    let ops = m.mem().mem_ops() - ops0;
    let t = m.take_stats().core_totals();
    format!(
        "checked={} incons={} recomputed={} repaired={} rfail={} esc={} quar={} cycles={} \
         flushes={} fences={} memops={}",
        r.regions_checked,
        r.regions_inconsistent,
        r.recomputed_regions,
        r.repaired_lines,
        r.repair_failures,
        r.escalations,
        r.regions_quarantined,
        r.cycles,
        t.flushes,
        t.fences,
        ops,
    )
}

/// Drain and verify a recovered machine.
fn verdict(pk: &PreparedKernel, m: &mut Machine) -> bool {
    m.drain_caches();
    (pk.verify)(m)
}

/// Golden lines for one crashed (or completed) instance: every regimen,
/// uninterrupted and truncated.
fn ladder_lines(head: &str, pk: &PreparedKernel, out: &mut Vec<String>) {
    for fault in faults(pk) {
        let mut m = pk.machine.fork_with_image(pk.machine.nvmm_fork());
        fault.apply(&mut m);
        let stats = recover(pk, &mut m);
        let ok = verdict(pk, &mut m);
        out.push(format!("{head}/{} {stats} verify={ok}", fault.name()));
        for off in TRUNCATE_OFFSETS {
            let mut m = pk.machine.fork_with_image(pk.machine.nvmm_fork());
            fault.apply(&mut m);
            let at = m.mem().mem_ops() + off;
            m.set_crash_trigger(CrashTrigger::AfterMemOps(at));
            let first = recover(pk, &mut m);
            let cut = m.mem().crashed();
            if cut {
                m.mem_mut().acknowledge_crash();
            } else {
                m.clear_crash_trigger();
            }
            let second = recover(pk, &mut m);
            let ok = verdict(pk, &mut m);
            out.push(format!(
                "{head}/{}+{off} cut={cut} first: {first} | again: {second} verify={ok}",
                fault.name()
            ));
        }
    }
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/recovery_ladder.txt")
}

#[test]
fn recovery_ladder_pinned() {
    let mut lines = Vec::new();
    for kernel in KernelId::ALL {
        for scheme in schemes() {
            for ops in CRASH_OPS {
                let mut pk = prepare_kernel(kernel, Scale::Micro, &cfg(), scheme);
                pk.machine.set_crash_trigger(CrashTrigger::AfterMemOps(ops));
                let plans = std::mem::take(&mut pk.plans);
                if pk.machine.run(plans) == Outcome::Completed {
                    continue;
                }
                pk.machine.clear_crash_trigger();
                ladder_lines(&format!("{kernel}/{scheme}/crash={ops}"), &pk, &mut lines);
            }
            // A completed, drained run: every region is committed, so the
            // faulted regimens reach rung 1's successful repairs.
            let mut pk = prepare_kernel(kernel, Scale::Micro, &cfg(), scheme);
            let plans = std::mem::take(&mut pk.plans);
            assert_eq!(pk.machine.run(plans), Outcome::Completed);
            pk.machine.drain_caches();
            ladder_lines(&format!("{kernel}/{scheme}/done"), &pk, &mut lines);
        }
    }
    let actual = format!("{}\n", lines.join("\n"));
    let path = golden_path();
    if std::env::var_os("LP_INVARIANCE_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir goldens");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); bless with LP_INVARIANCE_BLESS=1",
            path.display()
        )
    });
    if expected != actual {
        let diff: Vec<String> = expected
            .lines()
            .zip(actual.lines())
            .filter(|(e, a)| e != a)
            .take(10)
            .map(|(e, a)| format!("- {e}\n+ {a}"))
            .collect();
        panic!(
            "recovery ladder drifted ({} vs {} lines):\n{}",
            expected.lines().count(),
            actual.lines().count(),
            diff.join("\n")
        );
    }
}
