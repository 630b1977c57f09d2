//! Memory-controller timing model with ADR (Asynchronous DRAM Refresh)
//! semantics.
//!
//! The controller has a bounded read queue and a bounded write queue. Per
//! the ADR platform specification the paper builds on, the *write queue is
//! in the non-volatile domain*: a write accepted into the queue is durable
//! even if power fails before the NVMM cells are updated. The functional
//! simulator therefore applies write data to the NVMM image at enqueue
//! time; this model only computes *when* commands complete, for timing.
//!
//! The write queue also **coalesces**: a write to a line that already has
//! a pending (not yet issued) entry merges into it, like a real
//! write-combining controller. Flushing the same line repeatedly in a
//! burst therefore costs fewer NVMM cell writes than flushes issued —
//! this is what keeps flush-per-store Eager Persistency's write
//! amplification at the moderate levels the paper reports rather than one
//! NVMM write per store.

use crate::addr::LineAddr;

/// Timing model for one command queue (read or write).
///
/// Bandwidth is enforced *per slot*: each of the `N` slots accepts a new
/// command every `N × gap` cycles, giving an aggregate rate of one command
/// per `gap` without any global serialization point. This keeps the model
/// correct when logical cores' clocks are skewed (the deterministic
/// scheduler runs regions of different cores back to back in host order,
/// not in simulated-time order).
#[derive(Debug, Clone)]
struct CmdQueue {
    /// Completion time of the command occupying each slot.
    slots: Vec<u64>,
    /// Time at which each slot can accept its next command.
    free_at: Vec<u64>,
    /// The core that last used each slot (`usize::MAX` = background).
    users: Vec<usize>,
    /// Cycles a slot is held per command (`max(latency, N × gap)`).
    hold: u64,
    /// Service latency of one command.
    latency: u64,
}

impl CmdQueue {
    fn new(entries: usize, gap: u64, latency: u64) -> Self {
        CmdQueue {
            slots: vec![0u64; entries],
            free_at: vec![0u64; entries],
            users: vec![usize::MAX; entries],
            hold: latency.max(entries as u64 * gap),
            latency,
        }
    }

    /// Schedule a command arriving at `now`; returns `(slot, completion)`.
    /// If every slot is held past `now`, the command is delayed until the
    /// earliest slot frees (queue backpressure).
    ///
    /// Logical cores submit requests out of simulated-time order (the
    /// scheduler runs their regions back to back). A slot whose state was
    /// set by a *different* core more than one service window in this
    /// request's future cannot actually have contended with it, so it is
    /// treated as free at `now`; a core's own history always applies
    /// (real backpressure).
    fn schedule(&mut self, now: u64, user: usize) -> (usize, u64) {
        let eff = |i: usize| -> u64 {
            if self.users[i] == user || self.free_at[i] <= now + self.hold {
                self.free_at[i]
            } else {
                now
            }
        };
        let idx = (0..self.free_at.len())
            .min_by_key(|&i| eff(i))
            .expect("queue has at least one slot");
        let start = now.max(eff(idx));
        let completion = start + self.latency;
        self.slots[idx] = completion;
        self.free_at[idx] = start + self.hold;
        self.users[idx] = user;
        (idx, completion)
    }

    /// Whether a command completing at `t` is plausibly in flight for a
    /// request arriving at `now` (bounded window, for the same
    /// out-of-order-submission reason as [`CmdQueue::schedule`]).
    fn in_flight_for(&self, t: u64, now: u64) -> bool {
        t > now && t <= now + self.latency + self.hold
    }
}

/// Result of scheduling a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// When the NVMM device finishes the (possibly merged) write.
    pub completion: u64,
    /// Whether the write merged into a pending same-line entry (no new
    /// NVMM cell write).
    pub merged: bool,
}

/// The NVMM memory controller: read queue + coalescing ADR write queue.
#[derive(Debug, Clone)]
pub struct MemCtrl {
    reads: CmdQueue,
    writes: CmdQueue,
    /// Line occupying each write slot (`u64::MAX` = none).
    write_lines: Vec<u64>,
}

impl MemCtrl {
    /// Build from configuration values (queue entries, command gaps,
    /// service latencies — all in core cycles).
    pub fn new(
        read_entries: usize,
        write_entries: usize,
        read_gap: u64,
        write_gap: u64,
        read_latency: u64,
        write_latency: u64,
    ) -> Self {
        MemCtrl {
            reads: CmdQueue::new(read_entries, read_gap, read_latency),
            writes: CmdQueue::new(write_entries, write_gap, write_latency),
            write_lines: vec![u64::MAX; write_entries],
        }
    }

    /// Schedule a line read arriving at `now`; returns `(completion,
    /// forwarded)`. A read whose line sits in the write queue (pending or
    /// still completing) is serviced by store-to-load forwarding at
    /// `forward_latency` instead of a media access.
    pub fn schedule_read(
        &mut self,
        line: LineAddr,
        now: u64,
        forward_latency: u64,
        core: usize,
    ) -> (u64, bool) {
        for (i, &l) in self.write_lines.iter().enumerate() {
            if l == line.0 && self.writes.in_flight_for(self.writes.slots[i], now) {
                return (now + forward_latency, true);
            }
        }
        (self.reads.schedule(now, core).1, false)
    }

    /// Schedule a line write arriving at `now`. Durable immediately
    /// (ADR); the completion time is what `sfence` waits for. Merges into
    /// an in-flight same-line entry when possible (write combining at the
    /// queue/row-buffer).
    pub fn schedule_write(&mut self, line: LineAddr, now: u64, core: usize) -> WriteOutcome {
        for (i, &l) in self.write_lines.iter().enumerate() {
            if l == line.0 && self.writes.in_flight_for(self.writes.slots[i], now) {
                return WriteOutcome {
                    completion: self.writes.slots[i],
                    merged: true,
                };
            }
        }
        let (idx, completion) = self.writes.schedule(now, core);
        self.write_lines[idx] = line.0;
        WriteOutcome {
            completion,
            merged: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mc() -> MemCtrl {
        MemCtrl::new(32, 64, 8, 16, 300, 600)
    }

    #[test]
    fn single_write_latency() {
        let mut mc = mc();
        let w = mc.schedule_write(LineAddr(1), 1000, 0);
        assert_eq!(w.completion, 1600);
        assert!(!w.merged);
    }

    #[test]
    fn burst_absorbed_then_bandwidth_limits() {
        // 2-slot queue, gap 100, latency 150 -> slot hold = max(150, 200).
        let mut mc = MemCtrl::new(2, 2, 100, 100, 150, 150);
        let c1 = mc.schedule_write(LineAddr(1), 0, 0).completion;
        let c2 = mc.schedule_write(LineAddr(2), 0, 0).completion;
        // Burst of queue-depth commands starts immediately.
        assert_eq!((c1, c2), (150, 150));
        // The next command waits for a slot (hold = 200).
        let c3 = mc.schedule_write(LineAddr(3), 0, 0).completion;
        assert_eq!(c3, 350);
        // Aggregate rate is one command per gap: 2 slots / 200 hold.
        let c4 = mc.schedule_write(LineAddr(4), 0, 0).completion;
        assert_eq!(c4, 350);
        let c5 = mc.schedule_write(LineAddr(5), 0, 0).completion;
        assert_eq!(c5, 550);
    }

    #[test]
    fn queue_backpressure_delays_when_full() {
        // Queue with 2 slots, no gap, latency 100 (hold = latency).
        let mut mc = MemCtrl::new(2, 2, 0, 0, 100, 100);
        let a = mc.schedule_write(LineAddr(1), 0, 0).completion;
        let b = mc.schedule_write(LineAddr(2), 0, 0).completion;
        assert_eq!((a, b), (100, 100));
        // Both slots held until 100, so this starts at 100.
        let c = mc.schedule_write(LineAddr(3), 50, 0).completion;
        assert_eq!(c, 200);
    }

    #[test]
    fn skewed_cores_do_not_inherit_each_others_timeline() {
        // Core 0 fills the queue far in core 1's future; core 1's request
        // schedules at its own time (they cannot physically contend).
        let mut mc = MemCtrl::new(4, 4, 10, 10, 100, 100);
        for i in 0..4 {
            mc.schedule_write(LineAddr(100 + i), 1_000_000, 0);
        }
        let w = mc.schedule_write(LineAddr(2), 5, 1);
        assert_eq!(w.completion, 105, "decoupled from core 0's future");
        // But a core's own history always backpressures:
        let mut mc2 = MemCtrl::new(1, 1, 10, 10, 100, 100);
        mc2.schedule_write(LineAddr(1), 1_000_000, 0);
        let w2 = mc2.schedule_write(LineAddr(2), 5, 0);
        assert_eq!(w2.completion, 1_000_100 + 100);
    }

    #[test]
    fn in_flight_same_line_write_merges() {
        let mut mc = mc();
        let w1 = mc.schedule_write(LineAddr(7), 0, 0);
        assert!(!w1.merged);
        // Same line while the first write is still in flight: combined.
        let w2 = mc.schedule_write(LineAddr(7), 5, 0);
        assert!(w2.merged);
        assert_eq!(w2.completion, w1.completion);
        let w3 = mc.schedule_write(LineAddr(7), 100, 0);
        assert!(w3.merged);
    }

    #[test]
    fn completed_writes_do_not_merge() {
        let mut mc = mc();
        mc.schedule_write(LineAddr(9), 0, 0);
        // Arrives long after the entry completed: fresh write.
        let w = mc.schedule_write(LineAddr(9), 10_000, 0);
        assert!(!w.merged);
    }

    #[test]
    fn reads_and_writes_independent() {
        let mut mc = MemCtrl::new(1, 1, 0, 0, 300, 600);
        let (r, fwd) = mc.schedule_read(LineAddr(5), 0, 30, 0);
        let w = mc.schedule_write(LineAddr(1), 0, 0).completion;
        assert_eq!(r, 300);
        assert!(!fwd);
        assert_eq!(w, 600);
    }

    #[test]
    fn read_forwards_from_pending_write() {
        let mut mc = MemCtrl::new(1, 1, 0, 0, 300, 600);
        mc.schedule_write(LineAddr(9), 0, 0);
        let (r, fwd) = mc.schedule_read(LineAddr(9), 10, 30, 0);
        assert!(fwd, "line is in the write queue");
        assert_eq!(r, 40);
        // Long after the write completed, the read goes to the media.
        let (_, fwd2) = mc.schedule_read(LineAddr(9), 10_000, 30, 0);
        assert!(!fwd2);
    }
}
