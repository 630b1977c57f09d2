//! The [`Kernel`] trait — what one simulated workload provides — and the
//! machinery every kernel shares on top of it.
//!
//! A kernel writes its parameters per [`Scale`], its set-up, a per-thread
//! region [`Step`] schedule (barriers included, as data), its region keys
//! and bodies, a verifier against a host golden reference, the fault
//! campaign's target lines, and its recovery *policy*. Everything else is
//! written once, here and in [`lp_core::recovery`]: building the
//! scheduled plans ([`plans`]), running a region through its scheme
//! ([`Kernel::run_region`]), the recovery session ([`recover`]), rung-2
//! recompute ([`Kernel::recompute`]), EP/WAL re-execution and rebuilds
//! ([`Kernel::rerun`], [`Kernel::rebuild`]) and the newest-first scan
//! three of the five kernels recover with (`newest_first`).

use crate::driver::Scale;
use lp_core::parity::{RepairVerdict, Slot};
use lp_core::recovery::{EagerOnlySink, Recovery, RecoveryStats, StoreSink};
use lp_core::scheme::{Scheme, SchemeHandles, ThreadPersist};
use lp_core::track::TrackedRange;
use lp_sim::addr::LineAddr;
use lp_sim::core::CoreCtx;
use lp_sim::machine::{Machine, ThreadPlan};
use std::sync::Arc;

/// One region of a kernel: `(step, unit)` — the program step (tmm's `kk`
/// tile, a pivot, a column, an FFT stage) and the unit of data that step
/// writes (a strip, a row block, a chunk). Region keys index the checksum
/// table, the parity arena and the progress markers.
pub type Region = (usize, usize);

/// One entry of a thread's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Run this region through the thread's persistency scheme.
    Region(Region),
    /// Wait until every thread reaches its matching barrier.
    Barrier,
}

/// A simulated workload that runs under any persistency scheme.
pub trait Kernel: Clone + Send + Sync + 'static {
    /// Problem and windowing parameters.
    type Params: Copy + Send + Sync + 'static;

    /// The parameters at `scale`.
    fn params(scale: Scale) -> Self::Params;

    /// Worker threads (logical cores) the parameters ask for.
    fn threads(params: &Self::Params) -> usize;

    /// Allocate and initialize the workload on `machine` (untimed set-up:
    /// inputs are durable before the measured run starts).
    ///
    /// # Errors
    ///
    /// Returns allocation and parameter-validation failures as strings.
    fn setup(machine: &mut Machine, params: Self::Params, scheme: Scheme) -> Result<Self, String>;

    /// The scheme support structures.
    fn handles(&self) -> &SchemeHandles;

    /// Each thread's steps, in program order.
    fn schedule(&self) -> Vec<Vec<Step>>;

    /// The collision-free table / parity / marker key of `region`.
    fn key(&self, region: Region) -> usize;

    /// One region's computation, its stores routed through `sink`.
    fn body<S: StoreSink>(&self, ctx: &mut CoreCtx<'_>, region: Region, sink: &mut S);

    /// Persistent address ranges for the `lp-check` sanitizer: the
    /// protected data, the read-only inputs, and the scheme's structures.
    fn tracked_ranges(&self) -> Vec<TrackedRange>;

    /// Whether the durable output matches the host golden reference (call
    /// after the run completed and caches were drained).
    fn verify(&self, machine: &Machine) -> bool;

    /// The recovery policy: which regions to audit, in what order, what to
    /// rebuild, and where replay resumes. Never called under `Base`.
    fn recover(&self, rec: &mut Recovery<'_>);

    /// Sorted, deduplicated lines a fault campaign may poison: protected
    /// data every scheme's recovery quarantines and rebuilds.
    fn repairable_lines(&self) -> Vec<LineAddr>;

    /// Sorted, deduplicated lines a fault campaign may silently bit-flip
    /// under Lazy schemes: data that recovery provably audits or
    /// overwrites. Defaults to [`Kernel::repairable_lines`].
    fn flip_lines(&self) -> Vec<LineAddr> {
        self.repairable_lines()
    }

    /// Run `region` through thread persist `tp`: begin, body, commit.
    fn run_region(&self, ctx: &mut CoreCtx<'_>, tp: ThreadPersist, region: Region) {
        let mut rs = tp.begin(ctx, self.key(region));
        let mut sink = crate::common::SchemeSink { tp, rs: &mut rs };
        self.body(ctx, region, &mut sink);
        tp.commit(ctx, rs);
    }

    /// EP/WAL re-execution: re-run `region` through thread `t`'s scheme
    /// path, which advances its durable marker.
    fn rerun(&self, rec: &mut Recovery<'_>, t: usize, region: Region) {
        self.run_region(&mut rec.ctx, self.handles().thread(t), region);
        rec.stats.recomputed_regions += 1;
    }

    /// Rung 2: recompute `region` eagerly, republishing its checksum (and
    /// parity line).
    fn recompute(&self, rec: &mut Recovery<'_>, region: Region) {
        rec.recompute(self.key(region), |ctx, sink| self.body(ctx, region, sink));
    }

    /// Re-execute `regions` eagerly through one sink that publishes
    /// nothing (EP/WAL rebuilds): regions rewriting the same lines share
    /// one deduplicated commit, which flushes each touched line once and
    /// fences once.
    fn rebuild(&self, rec: &mut Recovery<'_>, regions: impl IntoIterator<Item = Region>) {
        let mut sink = EagerOnlySink::default();
        for region in regions {
            self.body(&mut rec.ctx, region, &mut sink);
            rec.stats.recomputed_regions += 1;
        }
        sink.commit(&mut rec.ctx);
    }
}

/// Build the scheduled per-core work plans for one run of `k`.
pub fn plans<K: Kernel>(k: &K) -> Vec<ThreadPlan<'static>> {
    let shared = Arc::new(k.clone());
    k.schedule()
        .into_iter()
        .enumerate()
        .map(|(t, steps)| {
            let tp = k.handles().thread(t);
            let mut plan = ThreadPlan::new();
            for step in steps {
                match step {
                    Step::Region(region) => {
                        let k = Arc::clone(&shared);
                        plan.region(move |ctx| k.run_region(ctx, tp, region));
                    }
                    Step::Barrier => {
                        plan.barrier();
                    }
                }
            }
            plan
        })
        .collect()
}

/// A phased schedule: in each of `steps` steps every thread runs the
/// regions of its `owners` units that `keep` admits, then all threads meet
/// at a barrier, because the next step reads what this one wrote.
pub(crate) fn phased(
    owners: &[Vec<usize>],
    steps: usize,
    keep: impl Fn(Region) -> bool,
) -> Vec<Vec<Step>> {
    owners
        .iter()
        .map(|owned| {
            let mut out = Vec::new();
            for s in 0..steps {
                out.extend(
                    owned
                        .iter()
                        .map(|&u| (s, u))
                        .filter(|&r| keep(r))
                        .map(Step::Region),
                );
                out.push(Step::Barrier);
            }
            out
        })
        .collect()
}

/// Post-crash recovery of `k` on `machine`: one [`Recovery`] session on
/// core 0 running the kernel's policy (nothing to do under `Base`).
pub fn recover<K: Kernel>(k: &K, machine: &mut Machine) -> RecoveryStats {
    if k.handles().scheme == Scheme::Base {
        return RecoveryStats::default();
    }
    let mut rec = Recovery::begin(machine, k.handles());
    k.recover(&mut rec);
    rec.finish()
}

/// The newest-first scan of one `unit` whose steps all rewrite the same
/// data (tmm's strips, Gauss's and conv2d's row blocks): the newest step
/// whose checksum verifies — or whose one bad line rung 1 repairs — is
/// the unit's durable state (Figure 9's reverse scan), and replay resumes
/// after it.
///
/// `steps` are the unit's regions in program order, `slots(step)` streams
/// a region's elements in fold order, and `poisoned` whether a poisoned
/// line lies in the unit's data. A poisoned unit is trusted only when
/// rung 1 repairs it, since poison reads as a fixed pattern a weak code
/// can collide with. Returns the step replay resumes from (`0`: from the
/// unit's initial state), or `None` when the unit is quarantined and must
/// be rebuilt from its initial state.
pub(crate) fn newest_first<K: Kernel, I: IntoIterator<Item = Slot<f64>> + Clone>(
    k: &K,
    rec: &mut Recovery<'_>,
    unit: usize,
    steps: &[usize],
    poisoned: bool,
    slots: impl Fn(usize) -> I,
) -> Option<usize> {
    if poisoned && !(rec.repairs() && poison_repaired(k, rec, unit, steps, &slots)) {
        return None;
    }
    let mut failed = false;
    let resume = steps
        .iter()
        .rev()
        .find(|&&s| rec.audit(k.key((s, unit)), slots(s), &mut failed))
        .map_or(0, |&s| s + 1);
    if failed {
        rec.stats.escalations += 1;
    }
    Some(resume)
}

/// Rung 1 for a poisoned unit, newest step first: stale or uncommitted
/// steps fail re-verification and the scan goes on; a step whose region
/// misses the poisoned line ends it. Escalates when nothing repaired.
fn poison_repaired<K: Kernel, I: IntoIterator<Item = Slot<f64>>>(
    k: &K,
    rec: &mut Recovery<'_>,
    unit: usize,
    steps: &[usize],
    slots: &impl Fn(usize) -> I,
) -> bool {
    for &s in steps.iter().rev() {
        let region: Vec<Slot<f64>> = slots(s).into_iter().collect();
        match rec.poison_repair(k.key((s, unit)), &region) {
            RepairVerdict::Repaired => return true,
            RepairVerdict::Failed => {}
            RepairVerdict::Clean => break,
        }
    }
    rec.stats.escalations += 1;
    false
}

/// Inherent forwarders for a [`Kernel`] implementor, so callers that do
/// not import the trait keep calling `K::setup(..)`, `k.plans()`,
/// `k.recover(machine)` and the rest as methods.
macro_rules! inherent_kernel_api {
    ($k:ty) => {
        impl $k {
            /// Allocate and initialize the workload on `machine` (see
            /// [`crate::kernel::Kernel::setup`]).
            ///
            /// # Errors
            ///
            /// Returns allocation and parameter-validation failures.
            pub fn setup(
                machine: &mut lp_sim::machine::Machine,
                params: <$k as crate::kernel::Kernel>::Params,
                scheme: lp_core::scheme::Scheme,
            ) -> Result<Self, String> {
                <$k as crate::kernel::Kernel>::setup(machine, params, scheme)
            }

            /// The scheduled per-core work plans for one run.
            pub fn plans(&self) -> Vec<lp_sim::machine::ThreadPlan<'static>> {
                crate::kernel::plans(self)
            }

            /// Persistent address ranges for the `lp-check` sanitizer.
            pub fn tracked_ranges(&self) -> Vec<lp_core::track::TrackedRange> {
                <$k as crate::kernel::Kernel>::tracked_ranges(self)
            }

            /// Whether the durable output matches the golden reference.
            pub fn verify(&self, machine: &lp_sim::machine::Machine) -> bool {
                <$k as crate::kernel::Kernel>::verify(self, machine)
            }

            /// Post-crash recovery, single-threaded on core 0 with Eager
            /// Persistency (Section III-E).
            pub fn recover(
                &self,
                machine: &mut lp_sim::machine::Machine,
            ) -> lp_core::recovery::RecoveryStats {
                crate::kernel::recover(self, machine)
            }

            /// Lines a fault campaign may poison.
            pub fn repairable_lines(&self) -> Vec<lp_sim::addr::LineAddr> {
                <$k as crate::kernel::Kernel>::repairable_lines(self)
            }

            /// Lines a fault campaign may silently bit-flip.
            pub fn flip_lines(&self) -> Vec<lp_sim::addr::LineAddr> {
                <$k as crate::kernel::Kernel>::flip_lines(self)
            }
        }
    };
}
pub(crate) use inherent_kernel_api;
