//! Per-core execution model and the [`CoreCtx`] operation API.
//!
//! Each logical core has its own cycle clock, a store queue (stores *and*
//! cache-line flushes occupy entries until their writeback completes —
//! this is what makes Eager Persistency pile up FUW hazards in Table VI),
//! a set of MSHRs bounding outstanding L1 misses, and a pending drain time
//! that `sfence` waits for.
//!
//! Loads carry no queue: a load charges its latency to the core's clock
//! before it retires, so it would enter a load queue already complete,
//! and every clock update moves forward. Such a queue could never hold an
//! in-flight entry or stall an issue. No reorder buffer is modelled
//! either: the store queue is the whole in-flight backlog, and its
//! [`STORE_QUEUE`] entries cannot fill Table II's 196-entry ROB.
//!
//! The core's parameters are Table II's ([`crate::config`]): [`ISSUE_WIDTH`]
//! issue slots per cycle, [`STORE_QUEUE`] store-queue entries, [`MSHRS`]
//! MSHRs and a load-miss overlap of [`MLP`].
//!
//! Kernels never touch the caches directly; they issue operations through
//! [`CoreCtx`], which charges time, applies the functional effect through
//! [`crate::memsys::MemSystem`], and maintains the hazard counters.

use std::collections::VecDeque;

use crate::addr::{Addr, LineAddr};
use crate::config::{ISSUE_WIDTH, L1_LATENCY, MLP, MSHRS, STORE_QUEUE};
use crate::mem::{PArray, Scalar};
use crate::memsys::MemSystem;
use crate::stats::CoreStats;

/// Architectural state of one logical core.
#[derive(Debug, Clone)]
pub struct CoreState {
    /// Core index (bit position in directory masks).
    pub id: usize,
    /// Core-local cycle clock.
    pub cycles: u64,
    /// Sub-issue-width remainder for the compute model.
    compute_rem: u64,
    /// Completion times of in-flight stores/flushes.
    sq: VecDeque<u64>,
    /// Busy-until times of the miss-status-holding registers.
    mshr: Vec<u64>,
    /// Latest completion among stores/flushes since the last fence.
    pending_drain: u64,
    /// Completion of the youngest store-buffer entry: the buffer drains
    /// in order (x86-TSO), so later entries complete no earlier.
    sq_chain: u64,
    /// Event counters.
    pub stats: CoreStats,
}

impl CoreState {
    /// Fresh core `id` at cycle 0.
    pub fn new(id: usize) -> Self {
        CoreState {
            id,
            cycles: 0,
            compute_rem: 0,
            sq: VecDeque::with_capacity(STORE_QUEUE),
            mshr: vec![0u64; MSHRS],
            pending_drain: 0,
            sq_chain: 0,
            stats: CoreStats::default(),
        }
    }

    /// Charge `slots` issue slots through the sub-width accumulator (the
    /// shared cost model of `compute` and pipelined L1-hit loads).
    #[inline]
    fn advance_issue_slots(&mut self, slots: u64) {
        let total = self.compute_rem + slots;
        self.cycles += total / ISSUE_WIDTH;
        self.compute_rem = total % ISSUE_WIDTH;
    }

    /// Reset transient state (queues, clock) but keep the identity.
    pub fn reset(&mut self) {
        self.cycles = 0;
        self.compute_rem = 0;
        self.sq.clear();
        self.mshr.iter_mut().for_each(|t| *t = 0);
        self.pending_drain = 0;
        self.sq_chain = 0;
        self.stats = CoreStats::default();
    }

    /// Drop completed entries (`<= now`) from the front of a sorted queue.
    #[inline]
    fn drain_queue(q: &mut VecDeque<u64>, now: u64) {
        while q.front().is_some_and(|&t| t <= now) {
            q.pop_front();
        }
    }

    /// Append a completion time, asserting (debug only) the queue stays
    /// sorted: store/flush completions are chained through `sq_chain`.
    #[inline]
    fn push_sorted(q: &mut VecDeque<u64>, t: u64) {
        debug_assert!(q.back().is_none_or(|&b| b <= t), "queue must stay sorted");
        q.push_back(t);
    }

    /// Attribute a pipeline stall: while the core cannot issue, the
    /// would-have-issued instruction mix piles up against the functional
    /// units. This is the proxy behind Table VI's FUI/FUR columns (the
    /// paper counts per-cycle cannot-issue events in gem5): roughly half
    /// the blocked issue slots are integer ops, 40% are loads.
    fn account_blocked_issue(&mut self, stall: u64) {
        self.stats.fui_events += stall * ISSUE_WIDTH / 2;
        self.stats.fur_events += stall * ISSUE_WIDTH * 2 / 5;
    }

    /// Reserve a store-queue slot, stalling (and counting FUW events) if
    /// the queue is full. Inlined into every store; the stall is not.
    #[inline]
    fn acquire_sq_slot(&mut self) {
        Self::drain_queue(&mut self.sq, self.cycles);
        if self.sq.len() >= STORE_QUEUE {
            self.stall_for_sq_slot();
        }
    }

    /// The full-queue case of [`CoreState::acquire_sq_slot`]: wait for
    /// the oldest entry to complete.
    fn stall_for_sq_slot(&mut self) {
        let min = *self.sq.front().expect("non-empty");
        self.stats.fuw_events += 1;
        let stall = min.saturating_sub(self.cycles);
        self.account_blocked_issue(stall);
        self.cycles = self.cycles.max(min);
        Self::drain_queue(&mut self.sq, self.cycles);
    }

    /// Reserve an MSHR, stalling (and counting an MSHR-full event) if all
    /// are busy. Returns the index to mark busy afterwards. Both demand
    /// misses and cache-line flushes occupy MSHRs (flushes hold theirs
    /// until the writeback is accepted — this is why Eager Persistency
    /// inflates the MSHR-full count in Table VI).
    fn acquire_mshr(&mut self) -> usize {
        if let Some(i) = self.mshr.iter().position(|&t| t <= self.cycles) {
            return i;
        }
        let (idx, &min) = self
            .mshr
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| t)
            .expect("mshrs non-empty");
        self.stats.mshr_full_events += 1;
        let stall = min.saturating_sub(self.cycles);
        self.account_blocked_issue(stall);
        self.cycles = self.cycles.max(min);
        idx
    }
}

/// The operation interface a simulated thread uses to touch persistent
/// memory. Borrows one core plus the shared memory system; the scheduler
/// in [`crate::machine::Machine`] constructs these.
///
/// After a crash every operation becomes a no-op (loads return the default
/// value); check [`CoreCtx::crashed`] at convenient boundaries.
#[derive(Debug)]
pub struct CoreCtx<'a> {
    /// The executing core.
    pub core: &'a mut CoreState,
    /// The shared memory system.
    pub mem: &'a mut MemSystem,
}

impl<'a> CoreCtx<'a> {
    /// Create a context (normally done by the machine/scheduler).
    pub fn new(core: &'a mut CoreState, mem: &'a mut MemSystem) -> Self {
        CoreCtx { core, mem }
    }

    /// Current core-local cycle.
    #[inline]
    pub fn now(&self) -> u64 {
        self.core.cycles
    }

    /// Whether the machine has crashed.
    #[inline]
    pub fn crashed(&self) -> bool {
        self.mem.crashed()
    }

    /// Model `ops` ALU/FPU operations: advances the clock by
    /// `ops / ISSUE_WIDTH` cycles (with carry) and counts instructions.
    pub fn compute(&mut self, ops: u64) {
        if self.crashed() {
            return;
        }
        self.core.stats.instructions += ops;
        self.core.advance_issue_slots(ops);
    }

    /// Ensure `line` is usable in this core's L1 and return the access
    /// outcome plus the L1 way holding the line, so the caller's scalar
    /// read/write needs no further lookup.
    ///
    /// Always inlined, with the L1 probe and the hit case of
    /// [`MemSystem::ensure_in_l1_probed`]: the generic
    /// [`CoreCtx::load`]/[`CoreCtx::store`] compile in the calling crate,
    /// where, without link-time optimization, a plain function of lp-sim
    /// is a call; and with only `#[inline]`, LLVM kept this and the probe
    /// as calls of their own.
    #[inline(always)]
    fn access_line(&mut self, line: LineAddr, for_write: bool) -> (crate::memsys::Access, usize) {
        // MSHR acquisition needs to know hit/miss before paying costs. A
        // resident line in any valid state counts as an L1 probe hit for
        // MSHR purposes (upgrades do not take an MSHR). The probe result
        // (the resident way, if any) is handed to the memory system so
        // the set-associative lookup happens exactly once per operation.
        let probe = self.mem.l1_probe(self.core.id, line);
        let mshr_idx = if probe.is_some() {
            None
        } else {
            Some(self.core.acquire_mshr())
        };
        let (access, way) =
            self.mem
                .ensure_in_l1_probed(self.core.id, line, self.core.cycles, for_write, probe);
        if access.l1_hit {
            self.core.stats.l1_hits += 1;
        } else {
            self.core.stats.l1_misses += 1;
        }
        if let Some(i) = mshr_idx {
            self.core.mshr[i] = self.core.cycles + access.cost;
        }
        (access, way)
    }

    /// Timed load of element `i` of `arr`.
    ///
    /// Returns `T::default()` after a crash.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn load<T: Scalar>(&mut self, arr: PArray<T>, i: usize) -> T {
        let addr = arr.addr(i);
        self.load_addr(addr)
    }

    /// Timed load of a scalar at raw address `addr`.
    pub fn load_addr<T: Scalar>(&mut self, addr: Addr) -> T {
        if self.crashed() {
            return T::default();
        }
        self.core.stats.loads += 1;
        self.core.stats.instructions += 1;
        let line = addr.line();
        let (access, way) = self.access_line(line, false);
        if access.l1_hit {
            // L1 hits are fully pipelined on an out-of-order core: they
            // cost load-port throughput, not latency. Model as two issue
            // slots through the same accumulator `compute` uses.
            self.core.advance_issue_slots(2);
        } else {
            // Misses: the L1 round-trip serializes, but everything beyond
            // it (L2 latency, queueing, NVMM residency) overlaps across
            // the MSHRs of an out-of-order core — charge 1/MLP of it.
            let charged = L1_LATENCY + access.cost.saturating_sub(L1_LATENCY) / MLP;
            self.core.cycles += charged;
        }
        let v = self.mem.l1_read_scalar_at::<T>(self.core.id, way, addr);
        self.mem
            .observe_load(self.core.id, self.core.cycles, addr, T::SIZE);
        // Loads advance the op clock but are not crash-point candidates.
        self.mem.after_op(self.core.cycles, false);
        v
    }

    /// Timed store of `v` into element `i` of `arr`.
    ///
    /// The store is architecturally performed immediately; its writeback
    /// cost is charged to the store queue (the core pays one issue cycle),
    /// so independent stores overlap like a store buffer would.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn store<T: Scalar>(&mut self, arr: PArray<T>, i: usize, v: T) {
        let addr = arr.addr(i);
        self.store_addr(addr, v);
    }

    /// Timed store of a scalar at raw address `addr`.
    pub fn store_addr<T: Scalar>(&mut self, addr: Addr, v: T) {
        if self.crashed() {
            return;
        }
        self.core.stats.stores += 1;
        self.core.stats.instructions += 1;
        self.core.acquire_sq_slot();
        let line = addr.line();
        let (access, way) = self.access_line(line, true);
        self.mem.l1_write_scalar_at::<T>(self.core.id, way, addr, v);
        self.core.cycles += 1; // issue; completion tracked in the SQ
                               // The store buffer drains in order (x86-TSO): this entry cannot
                               // complete before its elders.
        let completion = (self.core.cycles + access.cost).max(self.core.sq_chain);
        self.core.sq_chain = completion;
        CoreState::push_sorted(&mut self.core.sq, completion);
        self.core.pending_drain = self.core.pending_drain.max(completion);
        self.mem
            .observe_store(self.core.id, self.core.cycles, addr, v.to_bits64(), T::SIZE);
        self.mem.after_op(self.core.cycles, true);
    }

    /// `clflushopt`: flush the line containing `addr` out of all caches,
    /// writing it to NVMM (durable on acceptance, per ADR) if dirty.
    /// Posted: the core pays a small issue cost; `sfence` waits for the
    /// writeback.
    pub fn clflushopt(&mut self, addr: Addr) {
        self.flush_impl(addr, false);
    }

    /// `clwb`: write the line back if dirty but retain a clean copy.
    pub fn clwb(&mut self, addr: Addr) {
        self.flush_impl(addr, true);
    }

    fn flush_impl(&mut self, addr: Addr, keep: bool) {
        if self.crashed() {
            return;
        }
        if keep {
            self.core.stats.writebacks_issued += 1;
        } else {
            self.core.stats.flushes += 1;
        }
        self.core.stats.instructions += 1;
        self.core.acquire_sq_slot();
        // A flush occupies an MSHR until its writeback completes, like any
        // other request that leaves the core; waiting for one is a
        // write-resource (FUW) hazard on top of the MSHR-full event.
        let before = self.core.cycles;
        let mshr = self.core.acquire_mshr();
        if self.core.cycles > before {
            self.core.stats.fuw_events += 1;
        }
        let out = self
            .mem
            .flush_line(addr.line(), self.core.cycles, keep, self.core.id);
        self.core.mshr[mshr] = out.completion.max(self.core.cycles);
        self.core.cycles += out.issue_cost;
        let completion = out.completion.max(self.core.cycles).max(self.core.sq_chain);
        self.core.sq_chain = completion;
        CoreState::push_sorted(&mut self.core.sq, completion);
        self.core.pending_drain = self.core.pending_drain.max(completion);
        self.mem
            .observe_flush(self.core.id, self.core.cycles, addr.line(), keep);
        self.mem.after_op(self.core.cycles, true);
    }

    /// Flush every line covering elements `[start, start+count)` of `arr`
    /// with `clflushopt`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn flush_range<T: Scalar>(&mut self, arr: PArray<T>, start: usize, count: usize) {
        let lines: Vec<LineAddr> = arr.lines_of_range(start, count).collect();
        for line in lines {
            self.clflushopt(line.base());
        }
    }

    /// `sfence`: stall until every prior store and flush issued by this
    /// core has completed (is durable, for flushes, per ADR).
    pub fn sfence(&mut self) {
        if self.crashed() {
            return;
        }
        self.core.stats.fences += 1;
        self.core.stats.instructions += 1;
        if self.core.pending_drain > self.core.cycles {
            let stall = self.core.pending_drain - self.core.cycles;
            self.core.stats.fence_stall_cycles += stall;
            self.core.account_blocked_issue(stall);
            self.core.cycles = self.core.pending_drain;
        }
        self.core.pending_drain = 0;
        // ADR: every flush this core issued before the fence is now
        // guaranteed durable (crash-state tracking only).
        self.mem.retire_pending_flushes(self.core.id);
        self.mem.observe_sfence(self.core.id, self.core.cycles);
        self.mem.after_op(self.core.cycles, true);
    }

    /// Announce the start of a persistency region with checksum-table /
    /// marker key `key` to any installed observer (see [`crate::observe`]).
    ///
    /// Purely observational — no timing or functional effect. The scheme
    /// layer (`lp-core`) calls this from its `begin`; kernels normally
    /// never call it directly.
    pub fn region_begin(&mut self, key: usize) -> crate::observe::RegionId {
        self.mem
            .announce_region_begin(self.core.id, self.core.cycles, key)
    }

    /// Announce the end (commit) of this core's open persistency region.
    pub fn region_end(&mut self) {
        self.mem.announce_region_end(self.core.id, self.core.cycles);
    }
}

#[cfg(test)]
mod tests {
    use crate::config::MachineConfig;
    use crate::machine::Machine;

    fn machine() -> Machine {
        Machine::new(
            MachineConfig::default()
                .with_cores(2)
                .with_nvmm_bytes(1 << 20),
        )
    }

    #[test]
    fn load_store_roundtrip_and_timing() {
        let mut m = machine();
        let arr = m.alloc::<f64>(16).unwrap();
        let mut ctx = m.ctx(0);
        ctx.store(arr, 3, 2.5);
        let t_after_store = ctx.now();
        assert!(t_after_store > 0);
        let v: f64 = ctx.load(arr, 3);
        assert_eq!(v, 2.5);
        assert_eq!(ctx.core.stats.loads, 1);
        assert_eq!(ctx.core.stats.stores, 1);
        // Second load is an L1 hit: pipelined, at most one cycle.
        let before = ctx.now();
        let _: f64 = ctx.load(arr, 3);
        assert!(ctx.now() - before <= 1);
    }

    #[test]
    fn compute_respects_issue_width() {
        let mut m = machine();
        let mut ctx = m.ctx(0);
        ctx.compute(8); // 8 ops / 4-wide = 2 cycles
        assert_eq!(ctx.now(), 2);
        ctx.compute(2); // remainder accumulates
        assert_eq!(ctx.now(), 2);
        ctx.compute(2);
        assert_eq!(ctx.now(), 3);
        assert_eq!(ctx.core.stats.instructions, 12);
    }

    #[test]
    fn sfence_waits_for_flush_completion() {
        let mut m = machine();
        let arr = m.alloc::<f64>(8).unwrap();
        let mut ctx = m.ctx(0);
        ctx.store(arr, 0, 1.0);
        let before = ctx.now();
        ctx.clflushopt(arr.addr(0));
        ctx.sfence();
        // Fence had to wait roughly an NVMM write latency.
        assert!(ctx.now() >= before + ctx.mem.cfg.nvmm_write_cycles());
        assert!(ctx.core.stats.fence_stall_cycles > 0);
        assert_eq!(ctx.core.stats.fences, 1);
        // A second fence with nothing pending is free.
        let t = ctx.now();
        ctx.sfence();
        assert_eq!(ctx.now(), t);
    }

    #[test]
    fn store_queue_fills_under_flush_pressure() {
        let mut m = machine();
        let arr = m.alloc::<f64>(8 * 1024).unwrap();
        let mut ctx = m.ctx(0);
        // Store + flush every line back-to-back: flush completions are slow
        // (NVMM write latency), so the 48-entry SQ must fill.
        for i in 0..1024 {
            ctx.store(arr, i * 8, i as f64);
            ctx.clflushopt(arr.addr(i * 8));
        }
        assert!(
            ctx.core.stats.fuw_events > 0,
            "expected FUW structural hazards under flush pressure"
        );
    }

    #[test]
    fn crash_makes_ops_inert() {
        let mut m = machine();
        let arr = m.alloc::<f64>(8).unwrap();
        m.mem_mut().force_crash();
        let mut ctx = m.ctx(0);
        ctx.store(arr, 0, 9.0);
        let v: f64 = ctx.load(arr, 0);
        assert_eq!(v, 0.0);
        assert_eq!(ctx.now(), 0);
        ctx.sfence();
        ctx.compute(100);
        assert_eq!(ctx.now(), 0);
    }

    #[test]
    fn flush_range_covers_all_lines() {
        let mut m = machine();
        let arr = m.alloc::<f64>(64).unwrap(); // 8 lines
        {
            let mut ctx = m.ctx(0);
            for i in 0..64 {
                ctx.store(arr, i, i as f64);
            }
            ctx.flush_range(arr, 0, 64);
            ctx.sfence();
            assert_eq!(ctx.core.stats.flushes, 8);
            assert_eq!(ctx.mem.stats.nvmm_writes_flush, 8);
        }
        // All values durable.
        for i in 0..64 {
            assert_eq!(m.peek(arr, i), i as f64);
        }
    }
}
