//! The `kernels` and `recover` workloads: Bench-scale kernel × scheme
//! cells run crash-free, or crashed at a seeded point and recovered.

use std::time::Instant;

use lp_core::recovery::RecoveryStats;
use lp_kernels::driver::{PreparedKernel, Scale};
use lp_sim::machine::Outcome;
use lp_sim::mem::Nvmm;
use lp_sim::memsys::CrashTrigger;
use lp_sim::stats::SimStats;

use crate::cells::{self, Cell, RECOVERABLE, SCHEMES};
use crate::trace::span;

/// What one cell did in one pass.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The cell.
    pub cell: Cell,
    /// Memory ops of the run (`recover`: the crash point).
    pub memops: u64,
    /// Simulated cycles of the run (`recover`: up to the crash).
    pub exec_cycles: u64,
    /// NVMM writes of the run (`recover`: up to the crash).
    pub nvmm_writes: u64,
    /// NVMM writes made by the drain before verification.
    pub drain_writes: u64,
    /// Modelled counters of the phase the workload is about: the run
    /// (`kernels`) or the recovery (`recover`), taken before the drain.
    pub stats: SimStats,
    /// Memory ops of that phase.
    pub phase_memops: u64,
    /// The recovery's own counters (`recover` only).
    pub recovery: Option<RecoveryStats>,
    /// Host seconds to build the machine and inputs.
    pub setup_s: f64,
    /// Host seconds in `Machine::run`.
    pub run_s: f64,
    /// Host seconds in the recovery call (`recover` only).
    pub recover_s: f64,
    /// Whether the durable output matched the golden reference.
    pub verified: bool,
}

impl CellRun {
    /// The simulated outcome, exact for a given seed: what the pins and
    /// the pass-to-pass determinism check compare.
    pub fn signature(&self) -> String {
        let mut s = format!(
            "memops={} exec_cycles={} nvmm_writes={}",
            self.memops, self.exec_cycles, self.nvmm_writes
        );
        if let Some(r) = self.recovery {
            s.push_str(&format!(" rec_cycles={}", r.cycles));
        }
        s
    }
}

/// Run every kernel × scheme cell crash-free, one after another.
pub fn kernels_pass(scale: Scale, seed: u64) -> Vec<CellRun> {
    cells::cells(&SCHEMES)
        .into_iter()
        .map(|cell| {
            let id = cell.id();
            let t = Instant::now();
            let mut pk = span("kernels.setup", &id, || {
                cells::prepare(cell, scale, cells::input_seed(seed, cell.kernel))
            });
            let setup_s = t.elapsed().as_secs_f64();
            let plans = std::mem::take(&mut pk.plans);
            let t = Instant::now();
            let outcome = span("sim.run", &id, || pk.machine.run(plans));
            let run_s = t.elapsed().as_secs_f64();
            let stats = pk.machine.stats();
            let memops = pk.machine.mem().mem_ops();
            let drain_writes = span("sim.drain", &id, || pk.machine.drain_caches());
            let verified = outcome == Outcome::Completed
                && span("kernels.verify", &id, || (pk.verify)(&pk.machine));
            span("sim.teardown", &id, || drop(pk));
            CellRun {
                cell,
                memops,
                exec_cycles: stats.exec_cycles(),
                nvmm_writes: stats.nvmm_writes(),
                drain_writes,
                stats,
                phase_memops: memops,
                recovery: None,
                setup_s,
                run_s,
                recover_s: 0.0,
                verified,
            }
        })
        .collect()
}

/// Every recoverable cell with the memory ops of its crash-free run: what
/// the seeded crash fractions scale.
pub fn crash_free_memops(scale: Scale, seed: u64) -> Vec<(Cell, u64)> {
    cells::cells(&RECOVERABLE)
        .into_iter()
        .map(|cell| {
            let mut pk = cells::prepare(cell, scale, cells::input_seed(seed, cell.kernel));
            let plans = std::mem::take(&mut pk.plans);
            assert_eq!(pk.machine.run(plans), Outcome::Completed, "{}", cell.id());
            (cell, pk.machine.mem().mem_ops())
        })
        .collect()
}

/// A crashed cell kept for more timed recoveries: the machine it was
/// recovered on (the template `Machine::fork_with_image` copies), its
/// recovery closure, its crash image and the ladder counts of its first
/// recovery.
pub struct Kept {
    index: usize,
    pk: PreparedKernel,
    image: Nvmm,
    first: RecoveryStats,
}

/// Crash each of `cells` at its seeded point, then recover, drain and
/// verify it. Each cell comes with its crash-free memory ops, from
/// [`crash_free_memops`]. A cell whose recovery took at most `keep_below`
/// seconds is also returned as [`Kept`], for [`recover_again`].
pub fn recover_pass(
    scale: Scale,
    seed: u64,
    cells: &[(Cell, u64)],
    keep_below: f64,
) -> (Vec<CellRun>, Vec<Kept>) {
    let mut kept = Vec::new();
    let runs = cells
        .iter()
        .enumerate()
        .map(|(index, &(cell, total))| {
            let id = cell.id();
            let t = Instant::now();
            let mut pk = span("kernels.setup", &id, || {
                cells::prepare(cell, scale, cells::input_seed(seed, cell.kernel))
            });
            let setup_s = t.elapsed().as_secs_f64();
            let at = ((total as f64 * cells::crash_fraction(seed, cell.kernel)) as u64).max(1);
            pk.machine.set_crash_trigger(CrashTrigger::AfterMemOps(at));
            let plans = std::mem::take(&mut pk.plans);
            let t = Instant::now();
            let outcome = span("sim.run", &id, || pk.machine.run(plans));
            let run_s = t.elapsed().as_secs_f64();
            pk.machine.clear_crash_trigger();
            let memops = pk.machine.mem().mem_ops();
            let crashed = pk.machine.take_stats();
            let image = pk.machine.nvmm_fork();
            let t = Instant::now();
            let recovery = span("core.recover", &id, || (pk.recover)(&mut pk.machine));
            let recover_s = t.elapsed().as_secs_f64();
            let stats = pk.machine.stats();
            let phase_memops = pk.machine.mem().mem_ops() - memops;
            let drain_writes = span("sim.drain", &id, || pk.machine.drain_caches());
            let verified = outcome == Outcome::Crashed
                && span("kernels.verify", &id, || (pk.verify)(&pk.machine));
            if recover_s <= keep_below {
                kept.push(Kept {
                    index,
                    pk,
                    image,
                    first: recovery,
                });
            } else {
                span("sim.teardown", &id, || drop((pk, image)));
            }
            CellRun {
                cell,
                memops,
                exec_cycles: crashed.exec_cycles(),
                nvmm_writes: crashed.nvmm_writes(),
                drain_writes,
                stats,
                phase_memops,
                recovery: Some(recovery),
                setup_s,
                run_s,
                recover_s,
                verified,
            }
        })
        .collect();
    (runs, kept)
}

/// Recover every kept cell once more, on a fresh machine over a copy of
/// its crash image, and keep the fastest recovery time in its run. The
/// copy must take the same path down the recovery ladder as the crashed
/// machine did, or the cell fails to verify. Every ladder count must
/// match; the simulated cycles may differ by a few percent, because a
/// fresh machine starts from zeroed clocks.
pub fn recover_again(kept: &[Kept], runs: &mut [CellRun]) {
    for k in kept {
        let run = &mut runs[k.index];
        let id = run.cell.id();
        let mut copy = span("sim.fork", &id, || {
            k.pk.machine.fork_with_image(k.image.fork())
        });
        let t = Instant::now();
        let again = span("core.recover", &id, || (k.pk.recover)(&mut copy));
        run.recover_s = run.recover_s.min(t.elapsed().as_secs_f64());
        run.verified &= RecoveryStats {
            cycles: k.first.cycles,
            ..again
        } == k.first;
        span("sim.teardown", &id, || drop(copy));
    }
}

/// Build (and drop) every cell's machine and inputs: one set-up sample
/// for a pass that did not otherwise set up, in host seconds.
pub fn setup_only(scale: Scale, seed: u64, recover: bool) -> f64 {
    let list = if recover {
        cells::cells(&RECOVERABLE)
    } else {
        cells::cells(&SCHEMES)
    };
    list.into_iter()
        .map(|cell| {
            let t = Instant::now();
            let pk = cells::prepare(cell, scale, cells::input_seed(seed, cell.kernel));
            let s = t.elapsed().as_secs_f64();
            drop(pk);
            s
        })
        .sum()
}
