//! The simulated machine: cores + memory system + persistent heap, with a
//! deterministic logical-core scheduler, crash orchestration, and untimed
//! setup/inspection access to the durable image.
//!
//! # Scheduling model
//!
//! Worker threads are *logical cores*. A workload hands the machine one
//! [`ThreadPlan`] per core: a queue of region-granular work items (closures
//! that issue timed operations through [`CoreCtx`]) optionally separated by
//! [`WorkItem::Barrier`]s. The scheduler interleaves plans round-robin, one
//! region per turn, so runs are fully deterministic. Each core keeps its own
//! cycle clock; execution time is the max across cores. The evaluated
//! kernels are data-parallel with disjoint write sets, so region-granular
//! interleaving preserves cache and coherence behaviour (see DESIGN.md).

use crate::config::MachineConfig;
use crate::core::{CoreCtx, CoreState};
use crate::mem::{OutOfPersistentMemory, PArray, PersistentHeap, Scalar};
use crate::memsys::{CrashTrigger, MemSystem};
use crate::stats::{SimStats, WriteCause};

/// A unit of scheduled work: one region closure or a barrier.
///
/// Region closures are `Send` so a whole prepared plan set (and the
/// machine it targets) can be handed to a worker thread by the parallel
/// exploration engine.
pub enum WorkItem<'w> {
    /// A region of computation executed on one core without interleaving.
    Region(Box<dyn FnOnce(&mut CoreCtx<'_>) + Send + 'w>),
    /// Wait until every unfinished core reaches its barrier, then align
    /// all their clocks to the maximum (models a synchronization barrier).
    Barrier,
}

impl std::fmt::Debug for WorkItem<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkItem::Region(_) => f.write_str("Region(..)"),
            WorkItem::Barrier => f.write_str("Barrier"),
        }
    }
}

/// The queue of work for one logical core.
#[derive(Debug, Default)]
pub struct ThreadPlan<'w> {
    items: std::collections::VecDeque<WorkItem<'w>>,
}

impl<'w> ThreadPlan<'w> {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a region closure.
    pub fn region(&mut self, f: impl FnOnce(&mut CoreCtx<'_>) + Send + 'w) -> &mut Self {
        self.items.push_back(WorkItem::Region(Box::new(f)));
        self
    }

    /// Append a barrier.
    pub fn barrier(&mut self) -> &mut Self {
        self.items.push_back(WorkItem::Barrier);
        self
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// How a scheduled run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// All plans ran to completion.
    Completed,
    /// The crash trigger fired (or a forced crash occurred); cache state
    /// has been discarded and the machine is powered back on for recovery.
    Crashed,
}

/// A full simulated machine.
///
/// # Examples
///
/// ```
/// use lp_sim::machine::{Machine, ThreadPlan, Outcome};
/// use lp_sim::config::MachineConfig;
///
/// let mut m = Machine::new(MachineConfig::default().with_cores(2).with_nvmm_bytes(1 << 20));
/// let arr = m.alloc::<f64>(64).unwrap();
/// let mut plans = m.plans();
/// plans[0].region(move |ctx| {
///     for i in 0..32 {
///         ctx.store(arr, i, i as f64);
///     }
/// });
/// plans[1].region(move |ctx| {
///     for i in 32..64 {
///         ctx.store(arr, i, i as f64);
///     }
/// });
/// assert_eq!(m.run(plans), Outcome::Completed);
/// m.drain_caches();
/// assert_eq!(m.peek(arr, 40), 40.0);
/// ```
#[derive(Debug)]
pub struct Machine {
    mem: MemSystem,
    cores: Vec<CoreState>,
    heap: PersistentHeap,
    regions_run: u64,
}

impl Machine {
    /// Build a machine from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: MachineConfig) -> Self {
        let heap = PersistentHeap::new(cfg.nvmm_bytes as u64);
        Self::power_on(MemSystem::new(cfg), heap)
    }

    /// A machine over `mem` and `heap` with fresh cores at cycle 0.
    fn power_on(mem: MemSystem, heap: PersistentHeap) -> Self {
        let cores = (0..mem.cfg.cores).map(CoreState::new).collect();
        Machine {
            mem,
            cores,
            heap,
            regions_run: 0,
        }
    }

    /// The machine configuration.
    pub fn cfg(&self) -> &MachineConfig {
        &self.mem.cfg
    }

    /// Number of logical cores.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Allocate a persistent array (line-aligned, zero-initialized in the
    /// durable image).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfPersistentMemory`] if the heap is exhausted.
    pub fn alloc<T: Scalar>(&mut self, len: usize) -> Result<PArray<T>, OutOfPersistentMemory> {
        self.heap.alloc::<T>(len)
    }

    /// Bytes of persistent heap used so far.
    pub fn heap_used(&self) -> u64 {
        self.heap.used()
    }

    /// Immutable access to the memory system (stats, durable image).
    pub fn mem(&self) -> &MemSystem {
        &self.mem
    }

    /// Mutable access to the memory system (crash triggers, forced crash).
    pub fn mem_mut(&mut self) -> &mut MemSystem {
        &mut self.mem
    }

    /// Untimed durable-image write for setup. Invalidates any cached copy
    /// of the affected line so it cannot be shadowed by stale data.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn poke<T: Scalar>(&mut self, arr: PArray<T>, i: usize, v: T) {
        let addr = arr.addr(i);
        self.mem.invalidate_everywhere(addr.line());
        let bits = v.to_bits64().to_le_bytes();
        self.mem.nvmm_mut().poke_bytes(addr, &bits[..T::SIZE]);
    }

    /// Untimed bulk setup write starting at element `start`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn poke_slice<T: Scalar>(&mut self, arr: PArray<T>, start: usize, values: &[T]) {
        for (k, &v) in values.iter().enumerate() {
            self.poke(arr, start + k, v);
        }
    }

    /// Untimed read of the *durable image* (what survives a crash).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn peek<T: Scalar>(&self, arr: PArray<T>, i: usize) -> T {
        self.mem.nvmm().peek(arr, i)
    }

    /// Untimed read of the whole array from the durable image.
    pub fn peek_vec<T: Scalar>(&self, arr: PArray<T>) -> Vec<T> {
        (0..arr.len()).map(|i| self.peek(arr, i)).collect()
    }

    /// Untimed read of the *coherent* view (freshest cached copy if any).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn peek_coherent<T: Scalar>(&self, arr: PArray<T>, i: usize) -> T {
        let addr = arr.addr(i);
        let mut buf = [0u8; crate::addr::LINE_BYTES];
        self.mem.read_coherent(addr.line(), &mut buf);
        let off = addr.line_offset();
        let mut bits = [0u8; 8];
        bits[..T::SIZE].copy_from_slice(&buf[off..off + T::SIZE]);
        T::from_bits64(u64::from_le_bytes(bits))
    }

    /// A direct operation context on core `id` (for recovery code,
    /// examples, and tests that do not need the scheduler).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn ctx(&mut self, id: usize) -> CoreCtx<'_> {
        CoreCtx::new(&mut self.cores[id], &mut self.mem)
    }

    /// Fresh empty plans, one per core, for [`Machine::run`].
    pub fn plans(&self) -> Vec<ThreadPlan<'static>> {
        (0..self.cores.len()).map(|_| ThreadPlan::new()).collect()
    }

    /// Execute the plans to completion or crash.
    ///
    /// Regions are interleaved round-robin across cores, one region per
    /// turn. On a crash the remaining work is abandoned, all cache state
    /// is discarded (dirty lines are lost), and the machine is powered
    /// back on so the caller can run recovery.
    ///
    /// # Panics
    ///
    /// Panics if more plans than cores are supplied.
    pub fn run(&mut self, plans: Vec<ThreadPlan<'_>>) -> Outcome {
        assert!(
            plans.len() <= self.cores.len(),
            "more plans ({}) than cores ({})",
            plans.len(),
            self.cores.len()
        );
        let mut queues: Vec<_> = plans.into_iter().map(|p| p.items).collect();
        loop {
            if self.mem.crashed() {
                self.mem.acknowledge_crash();
                return Outcome::Crashed;
            }
            let mut any_progress = false;
            let mut all_blocked_or_done = true;
            for (i, q) in queues.iter_mut().enumerate() {
                match q.front() {
                    None => {}
                    Some(WorkItem::Barrier) => {}
                    Some(WorkItem::Region(_)) => {
                        all_blocked_or_done = false;
                        let Some(WorkItem::Region(f)) = q.pop_front() else {
                            unreachable!()
                        };
                        let mut ctx = CoreCtx::new(&mut self.cores[i], &mut self.mem);
                        f(&mut ctx);
                        self.regions_run += 1;
                        any_progress = true;
                        if self.mem.crashed() {
                            break;
                        }
                    }
                }
            }
            if self.mem.crashed() {
                self.mem.acknowledge_crash();
                return Outcome::Crashed;
            }
            if all_blocked_or_done {
                // Either everything is done, or unfinished cores are all at
                // barriers: release them together.
                let waiting: Vec<usize> = queues
                    .iter()
                    .enumerate()
                    .filter(|(_, q)| matches!(q.front(), Some(WorkItem::Barrier)))
                    .map(|(i, _)| i)
                    .collect();
                if waiting.is_empty() {
                    debug_assert!(queues.iter().all(std::collections::VecDeque::is_empty));
                    return Outcome::Completed;
                }
                let sync = waiting
                    .iter()
                    .map(|&i| self.cores[i].cycles)
                    .max()
                    .unwrap_or(0);
                self.mem.observe_barrier(sync);
                for &i in &waiting {
                    self.cores[i].cycles = sync;
                    queues[i].pop_front();
                }
                any_progress = true;
            }
            debug_assert!(any_progress, "scheduler made no progress");
        }
    }

    /// Total regions executed across all runs.
    pub fn regions_run(&self) -> u64 {
        self.regions_run
    }

    /// Write back every dirty line (cause: [`WriteCause::Drain`]) without
    /// evicting. Call before [`Machine::peek`]-based verification of a
    /// completed (non-crashed) run.
    pub fn drain_caches(&mut self) -> u64 {
        let t = self.mem.global_time();
        self.mem.writeback_all_dirty(t, WriteCause::Drain)
    }

    /// Install an event observer (see [`crate::observe`]). The observer
    /// receives every memory event of subsequent runs; the timing and
    /// functional behaviour of the machine is unaffected.
    pub fn set_observer(&mut self, sink: crate::observe::SharedSink) {
        self.mem.set_observer(sink);
    }

    /// Remove any installed observer, restoring the zero-overhead default.
    pub fn clear_observer(&mut self) {
        self.mem.clear_observer();
    }

    /// Enable or disable ADR crash-state tracking (see
    /// [`MemSystem::set_adr_tracking`]). While enabled, a crash captures a
    /// [`crate::memsys::CrashCensus`] retrievable with
    /// [`Machine::take_crash_census`].
    pub fn set_adr_tracking(&mut self, on: bool) {
        self.mem.set_adr_tracking(on);
    }

    /// Take the census of maybe-durable lines captured by the most recent
    /// crash (requires ADR tracking to have been enabled when it fired).
    pub fn take_crash_census(&mut self) -> Option<crate::memsys::CrashCensus> {
        self.mem.take_crash_census()
    }

    /// Arm non-destructive census snapshots at the given op indices (see
    /// [`MemSystem::set_snapshot_points`]); requires ADR tracking.
    ///
    /// # Panics
    ///
    /// Panics unless ADR tracking is enabled.
    pub fn set_snapshot_points(&mut self, points: &[u64]) {
        self.mem.set_snapshot_points(points);
    }

    /// Take the `(op, census)` snapshots collected by the armed points, in
    /// op order (see [`MemSystem::take_snapshots`]).
    pub fn take_snapshots(&mut self) -> Vec<(u64, crate::memsys::CrashCensus)> {
        self.mem.take_snapshots()
    }

    /// Enable or disable crash-point candidate recording (see
    /// [`MemSystem::set_candidate_tracking`]). Purely observational.
    pub fn set_candidate_tracking(&mut self, on: bool) {
        self.mem.set_candidate_tracking(on);
    }

    /// Take the recorded crash-point candidate op indices, ascending and
    /// deduplicated (see [`MemSystem::take_crash_candidates`]).
    pub fn take_crash_candidates(&mut self) -> Vec<u64> {
        self.mem.take_crash_candidates()
    }

    /// A copy-on-write fork of the current durable image.
    pub fn nvmm_fork(&self) -> crate::mem::Nvmm {
        self.mem.nvmm().fork()
    }

    /// Build a fresh machine (cold caches, zeroed core clocks) over the
    /// same configuration and heap layout, with `image` as its durable
    /// state. This is how a crash-state explorer materializes one
    /// candidate post-crash world and runs real recovery on it; an
    /// explorer judging many states in a row can [`Machine::refork`] a
    /// spent machine instead, which builds the same machine without
    /// reallocating its caches.
    ///
    /// # Panics
    ///
    /// Panics if `image` does not match the configured NVMM capacity.
    pub fn fork_with_image(&self, image: crate::mem::Nvmm) -> Machine {
        let mem = MemSystem::with_nvmm(self.cfg().clone(), image);
        Self::power_on(mem, self.heap.clone())
    }

    /// Recycle this spent machine into `template.fork_with_image(image)`.
    ///
    /// The result is equal to that fork in every observable respect:
    /// cores, memory controller, statistics, crash trigger, observer,
    /// census/snapshot/candidate state and open regions are all built
    /// fresh, and the cache arrays are reset to their newly built state.
    /// Only the cache allocations are reused, and the reset costs just
    /// the ways this machine ever filled, so judging many crash states
    /// one after another allocates nothing per state. `self` may be in
    /// any state — crashed, mid-recovery, holding poisoned lines.
    ///
    /// # Panics
    ///
    /// Panics if `self` was built with a different configuration from
    /// `template`, or `image` does not match the configured NVMM capacity.
    pub fn refork(self, template: &Machine, image: crate::mem::Nvmm) -> Machine {
        let mem = self.mem.recycle(template.cfg().clone(), image);
        Self::power_on(mem, template.heap.clone())
    }

    /// Arm the crash trigger for the next run.
    pub fn set_crash_trigger(&mut self, trigger: CrashTrigger) {
        self.mem.set_crash_trigger(Some(trigger));
    }

    /// Disarm the crash trigger.
    pub fn clear_crash_trigger(&mut self) {
        self.mem.set_crash_trigger(None);
    }

    /// Snapshot of all statistics.
    pub fn stats(&self) -> SimStats {
        SimStats {
            cores: self
                .cores
                .iter()
                .map(|c| {
                    let mut s = c.stats.clone();
                    s.cycles = c.cycles;
                    s
                })
                .collect(),
            mem: self.mem.stats.clone(),
        }
    }

    /// Take the statistics and reset all counters and core clocks (e.g. to
    /// measure recovery separately from the crashed run).
    pub fn take_stats(&mut self) -> SimStats {
        let out = self.stats();
        for c in &mut self.cores {
            c.reset();
        }
        self.mem.stats = Default::default();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memsys::CrashTrigger;

    fn machine(cores: usize) -> Machine {
        Machine::new(
            MachineConfig::default()
                .with_cores(cores)
                .with_nvmm_bytes(1 << 20),
        )
    }

    #[test]
    fn parallel_plans_complete_and_write() {
        let mut m = machine(4);
        let arr = m.alloc::<u64>(256).unwrap();
        let mut plans = m.plans();
        for (t, plan) in plans.iter_mut().enumerate() {
            plan.region(move |ctx| {
                for i in (t * 64)..((t + 1) * 64) {
                    ctx.store(arr, i, i as u64 + 1);
                }
            });
        }
        assert_eq!(m.run(plans), Outcome::Completed);
        m.drain_caches();
        for i in 0..256 {
            assert_eq!(m.peek(arr, i), i as u64 + 1);
        }
        assert_eq!(m.regions_run(), 4);
    }

    #[test]
    fn exec_time_is_max_core_cycles() {
        let mut m = machine(2);
        let arr = m.alloc::<u64>(128).unwrap();
        let mut plans = m.plans();
        plans[0].region(move |ctx| ctx.store(arr, 0, 1));
        plans[1].region(move |ctx| {
            for i in 64..128 {
                ctx.store(arr, i, 2);
            }
        });
        m.run(plans);
        let stats = m.stats();
        assert_eq!(
            stats.exec_cycles(),
            stats.cores.iter().map(|c| c.cycles).max().unwrap()
        );
        assert!(stats.cores[1].cycles > stats.cores[0].cycles);
    }

    #[test]
    fn barrier_aligns_clocks() {
        let mut m = machine(2);
        let arr = m.alloc::<u64>(128).unwrap();
        let mut plans = m.plans();
        // Core 0 does lots of work; core 1 almost none. After the barrier
        // both run one more region starting from the same time.
        plans[0].region(move |ctx| {
            for i in 0..64 {
                ctx.store(arr, i, 1);
            }
        });
        plans[0].barrier();
        plans[0].region(move |ctx| ctx.compute(4));
        plans[1].region(move |ctx| ctx.compute(4));
        plans[1].barrier();
        plans[1].region(move |ctx| ctx.compute(4));
        assert_eq!(m.run(plans), Outcome::Completed);
        let s = m.stats();
        assert_eq!(s.cores[0].cycles, s.cores[1].cycles);
    }

    #[test]
    fn crash_stops_run_and_discards_cache_state() {
        let mut m = machine(1);
        let arr = m.alloc::<u64>(64).unwrap();
        m.set_crash_trigger(CrashTrigger::AfterMemOps(10));
        let mut plans = m.plans();
        plans[0].region(move |ctx| {
            for i in 0..64 {
                ctx.store(arr, i, 7);
            }
        });
        assert_eq!(m.run(plans), Outcome::Crashed);
        // Nothing was evicted before the crash, so nothing survives.
        for i in 0..64 {
            assert_eq!(m.peek(arr, i), 0, "element {i} must not be durable");
        }
        // Machine is usable again after the crash.
        assert!(!m.mem().crashed());
        let mut plans = m.plans();
        plans[0].region(move |ctx| ctx.store(arr, 0, 9));
        m.clear_crash_trigger();
        assert_eq!(m.run(plans), Outcome::Completed);
        m.drain_caches();
        assert_eq!(m.peek(arr, 0), 9);
    }

    #[test]
    fn poke_is_visible_to_timed_loads() {
        let mut m = machine(1);
        let arr = m.alloc::<f64>(8).unwrap();
        // Load first so the line is cached, then poke: the stale cached
        // copy must be dropped.
        let _: f64 = m.ctx(0).load(arr, 0);
        m.poke(arr, 0, 3.25);
        let v: f64 = m.ctx(0).load(arr, 0);
        assert_eq!(v, 3.25);
    }

    #[test]
    fn peek_coherent_sees_cached_stores() {
        let mut m = machine(1);
        let arr = m.alloc::<u64>(8).unwrap();
        m.ctx(0).store(arr, 2, 11);
        assert_eq!(m.peek(arr, 2), 0, "durable image not yet updated");
        assert_eq!(m.peek_coherent(arr, 2), 11);
    }

    #[test]
    fn take_stats_resets() {
        let mut m = machine(1);
        let arr = m.alloc::<u64>(8).unwrap();
        m.ctx(0).store(arr, 0, 1);
        let s1 = m.take_stats();
        assert_eq!(s1.core_totals().stores, 1);
        let s2 = m.stats();
        assert_eq!(s2.core_totals().stores, 0);
        assert_eq!(s2.exec_cycles(), 0);
    }

    #[test]
    fn machine_and_plans_are_send() {
        // Compile-time contract for the parallel exploration engine: a
        // complete simulation case (machine + plans) can cross threads.
        fn assert_send<T: Send>() {}
        assert_send::<Machine>();
        assert_send::<ThreadPlan<'static>>();
        assert_send::<crate::mem::Nvmm>();
        assert_send::<crate::memsys::MemSystem>();
    }

    #[test]
    #[should_panic(expected = "more plans")]
    fn too_many_plans_rejected() {
        let mut m = machine(1);
        let mut plans = vec![ThreadPlan::new(), ThreadPlan::new()];
        plans[0].region(|_| {});
        plans[1].region(|_| {});
        m.run(plans);
    }
}
