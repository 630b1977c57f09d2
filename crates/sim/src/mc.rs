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
    /// The core that last used each slot (`usize::MAX` = background).
    users: Vec<usize>,
    /// Tournament tree of `(free_at, slot)` pairs, where `free_at` is the
    /// time a slot can accept its next command. Node 1 is the root, the
    /// leaf of slot `i` is node `P + i` for `P = N.next_power_of_two()`,
    /// the padding leaves hold `(u64::MAX, u32::MAX)`, and every inner
    /// node holds the child with the earlier free time, the left one on
    /// ties. A left subtree holds only lower slots than its sibling, so
    /// the root is the lowest slot among those with the earliest free
    /// time.
    first_free: Vec<(u64, u32)>,
    /// Cycles a slot is held per command (`max(latency, N × gap)`).
    hold: u64,
    /// Service latency of one command.
    latency: u64,
}

/// The `first_free` entry of two siblings that wins: the earlier free
/// time, the left one on ties.
#[inline]
fn earlier(left: (u64, u32), right: (u64, u32)) -> (u64, u32) {
    if right.0 < left.0 {
        right
    } else {
        left
    }
}

impl CmdQueue {
    fn new(entries: usize, gap: u64, latency: u64) -> Self {
        assert!(entries > 0, "a command queue needs at least one slot");
        let leaves = entries.next_power_of_two();
        let mut first_free = vec![(u64::MAX, u32::MAX); 2 * leaves];
        for (i, leaf) in first_free[leaves..leaves + entries].iter_mut().enumerate() {
            *leaf = (0, i as u32);
        }
        for node in (1..leaves).rev() {
            first_free[node] = earlier(first_free[2 * node], first_free[2 * node + 1]);
        }
        CmdQueue {
            slots: vec![0u64; entries],
            users: vec![usize::MAX; entries],
            first_free,
            hold: latency.max(entries as u64 * gap),
            latency,
        }
    }

    /// Time at which slot `i` can accept its next command.
    fn free_at(&self, i: usize) -> u64 {
        self.first_free[self.first_free.len() / 2 + i].0
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
    /// (real backpressure). The slot taken is the lowest index among those
    /// with the earliest such effective free time.
    ///
    /// The pick costs O(1) whenever some slot is free before `now`. Let
    /// `m` be the slot at the root of `first_free`, the lowest index with
    /// the minimum `free_at`. If `free_at[m] < now`, `m` is also the
    /// answer of a scan over every slot's effective time:
    ///
    /// - `m`'s effective time is `free_at[m]`, since `free_at[m]` is not
    ///   past `now + hold`;
    /// - every slot's effective time is at least `min(free_at[i], now)`:
    ///   it is either `free_at[i]`, or `now` for a slot of another core
    ///   whose `free_at[i]` is past `now + hold`;
    /// - a slot with `free_at[i] >= now` therefore reads at least `now`,
    ///   which is later than `free_at[m]`;
    /// - a slot with `free_at[i] < now` reads `free_at[i]`, which is not
    ///   below `free_at[m]`; it ties with `m` only when the two free
    ///   times are equal, and then its index is higher, because `m` is
    ///   the first index with that time.
    ///
    /// Otherwise every slot is busy at `now` (backpressure), and the pick
    /// scans every slot's effective time, lowest index first on ties.
    /// Either way, the slot's new `free_at` then replays the tree from its
    /// leaf to the root, in O(log N).
    fn schedule(&mut self, now: u64, user: usize) -> (usize, u64) {
        let (first, m) = self.first_free[1];
        let (idx, start) = if first < now {
            (m as usize, now)
        } else {
            self.scan(now, user)
        };
        let completion = start + self.latency;
        self.slots[idx] = completion;
        self.users[idx] = user;
        // Climb from the slot's leaf, carrying the winner so far: each
        // level reads only the sibling.
        let mut node = self.first_free.len() / 2 + idx;
        let mut winner = (start + self.hold, idx as u32);
        self.first_free[node] = winner;
        while node > 1 {
            let sibling = self.first_free[node ^ 1];
            winner = if node.is_multiple_of(2) {
                earlier(winner, sibling)
            } else {
                earlier(sibling, winner)
            };
            node /= 2;
            self.first_free[node] = winner;
        }
        (idx, completion)
    }

    /// The backpressure case of [`CmdQueue::schedule`]: the first slot
    /// with the minimum effective free time, and the time it starts.
    fn scan(&self, now: u64, user: usize) -> (usize, u64) {
        let eff = |i: usize| -> u64 {
            let free_at = self.free_at(i);
            if self.users[i] == user || free_at <= now + self.hold {
                free_at
            } else {
                now
            }
        };
        let idx = (0..self.slots.len())
            .min_by_key(|&i| eff(i))
            .expect("queue has at least one slot");
        (idx, now.max(eff(idx)))
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

/// Buckets of [`MemCtrl`]'s line-to-write-slot index.
const LINE_BUCKETS: usize = 256;

/// The bucket of `line` in [`MemCtrl`]'s line-to-write-slot index (a
/// multiplicative hash: the top 8 bits of `line × 2⁶⁴/φ`).
fn line_bucket(line: u64) -> usize {
    (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize
}

/// The NVMM memory controller: read queue + coalescing ADR write queue.
#[derive(Debug, Clone)]
pub struct MemCtrl {
    reads: CmdQueue,
    writes: CmdQueue,
    /// Line occupying each write slot (`u64::MAX` = none).
    write_lines: Vec<u64>,
    /// Bit `i` of `line_slots[line_bucket(l)]` is set iff write slot `i`
    /// holds a line `l` of that bucket, so finding a line's write slots
    /// costs the slots of its bucket, not the whole queue.
    line_slots: Vec<u64>,
}

impl MemCtrl {
    /// Build from configuration values (queue entries, command gaps,
    /// service latencies — all in core cycles).
    ///
    /// # Panics
    ///
    /// Panics if a queue has no slot or the write queue has more than 64.
    pub fn new(
        read_entries: usize,
        write_entries: usize,
        read_gap: u64,
        write_gap: u64,
        read_latency: u64,
        write_latency: u64,
    ) -> Self {
        assert!(
            write_entries <= 64,
            "the line index keeps write slots in 64-bit masks"
        );
        MemCtrl {
            reads: CmdQueue::new(read_entries, read_gap, read_latency),
            writes: CmdQueue::new(write_entries, write_gap, write_latency),
            write_lines: vec![u64::MAX; write_entries],
            line_slots: vec![0; LINE_BUCKETS],
        }
    }

    /// The lowest write slot holding `line` with its command still in
    /// flight for a request arriving at `now`.
    fn pending_write(&self, line: LineAddr, now: u64) -> Option<usize> {
        let mut mask = self.line_slots[line_bucket(line.0)];
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if self.write_lines[i] == line.0 && self.writes.in_flight_for(self.writes.slots[i], now)
            {
                return Some(i);
            }
        }
        None
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
        if self.pending_write(line, now).is_some() {
            return (now + forward_latency, true);
        }
        (self.reads.schedule(now, core).1, false)
    }

    /// Schedule a line write arriving at `now`. Durable immediately
    /// (ADR); the completion time is what `sfence` waits for. Merges into
    /// an in-flight same-line entry when possible (write combining at the
    /// queue/row-buffer).
    pub fn schedule_write(&mut self, line: LineAddr, now: u64, core: usize) -> WriteOutcome {
        if let Some(i) = self.pending_write(line, now) {
            return WriteOutcome {
                completion: self.writes.slots[i],
                merged: true,
            };
        }
        let (idx, completion) = self.writes.schedule(now, core);
        let old = std::mem::replace(&mut self.write_lines[idx], line.0);
        if old != line.0 {
            if old != u64::MAX {
                self.line_slots[line_bucket(old)] &= !(1u64 << idx);
            }
            self.line_slots[line_bucket(line.0)] |= 1u64 << idx;
        }
        WriteOutcome {
            completion,
            merged: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    fn mc() -> MemCtrl {
        MemCtrl::new(32, 64, 8, 16, 300, 600)
    }

    /// The reference command queue: every pick scans every slot's
    /// effective free time. With `ScanCtrl`, whose pending-write lookup
    /// scans every write slot, it is what the first-free tree and the
    /// line index must match command for command.
    #[derive(Debug, Clone)]
    struct ScanQueue {
        slots: Vec<u64>,
        free_at: Vec<u64>,
        users: Vec<usize>,
        hold: u64,
        latency: u64,
    }

    impl ScanQueue {
        fn new(entries: usize, gap: u64, latency: u64) -> Self {
            ScanQueue {
                slots: vec![0u64; entries],
                free_at: vec![0u64; entries],
                users: vec![usize::MAX; entries],
                hold: latency.max(entries as u64 * gap),
                latency,
            }
        }

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

        fn in_flight_for(&self, t: u64, now: u64) -> bool {
            t > now && t <= now + self.latency + self.hold
        }
    }

    struct ScanCtrl {
        reads: ScanQueue,
        writes: ScanQueue,
        write_lines: Vec<u64>,
    }

    impl ScanCtrl {
        fn new(r: usize, w: usize, rgap: u64, wgap: u64, rlat: u64, wlat: u64) -> Self {
            ScanCtrl {
                reads: ScanQueue::new(r, rgap, rlat),
                writes: ScanQueue::new(w, wgap, wlat),
                write_lines: vec![u64::MAX; w],
            }
        }

        fn schedule_read(
            &mut self,
            line: LineAddr,
            now: u64,
            fwd: u64,
            core: usize,
        ) -> (u64, bool) {
            for (i, &l) in self.write_lines.iter().enumerate() {
                if l == line.0 && self.writes.in_flight_for(self.writes.slots[i], now) {
                    return (now + fwd, true);
                }
            }
            (self.reads.schedule(now, core).1, false)
        }

        fn schedule_write(&mut self, line: LineAddr, now: u64, core: usize) -> WriteOutcome {
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

    /// Every slot's state of `q` equals the reference's: after each
    /// command this pins which slot the command took.
    fn assert_same_slots(q: &CmdQueue, r: &ScanQueue, what: &str) {
        let free_at: Vec<u64> = (0..r.slots.len()).map(|i| q.free_at(i)).collect();
        assert_eq!(q.slots, r.slots, "{what}: completions per slot");
        assert_eq!(free_at, r.free_at, "{what}: free times per slot");
        assert_eq!(q.users, r.users, "{what}: users per slot");
    }

    /// Drive one controller and the scan reference through a seeded
    /// random command stream and compare every outcome and every slot.
    fn match_scan_reference(seed: u64) {
        let mut rng = Rng64::new(seed);
        let pick = |rng: &mut Rng64, xs: &[u64]| xs[rng.below(xs.len())];
        let (r, w) = (
            pick(&mut rng, &[1, 2, 3, 5, 8, 32]) as usize,
            pick(&mut rng, &[1, 2, 3, 7, 16, 64]) as usize,
        );
        let (rgap, wgap) = (rng.below(20) as u64, rng.below(40) as u64);
        let (rlat, wlat) = (50 + rng.below(400) as u64, 100 + rng.below(800) as u64);
        let fwd = 1 + rng.below(60) as u64;
        let mut fast = MemCtrl::new(r, w, rgap, wgap, rlat, wlat);
        let mut scan = ScanCtrl::new(r, w, rgap, wgap, rlat, wlat);
        // 1-8 users whose clocks start up to a million cycles apart and
        // advance independently, so slots set far in another user's
        // future are common.
        let users = 1 + rng.below(8);
        let mut clocks: Vec<u64> = (0..users).map(|_| rng.below(1_000_000) as u64).collect();
        // A handful of hot lines makes merges and forwards frequent.
        let lines = 1 + rng.below(24) as u64;
        for cmd in 0..3000 {
            let u = rng.below(users);
            // Bursts at one time saturate the queues and make equal free
            // times; otherwise the clock moves on by up to a few hundred
            // cycles, and now and then jumps far ahead.
            if !rng.chance(0.4) {
                clocks[u] += if rng.chance(0.02) {
                    rng.below(200_000) as u64
                } else {
                    rng.below(400) as u64
                };
            }
            let now = clocks[u];
            let line = LineAddr(if rng.chance(0.7) {
                rng.below(lines as usize) as u64
            } else {
                rng.next_u64() >> 8
            });
            let what = format!("seed {seed} command {cmd}");
            if rng.chance(0.5) {
                let got = fast.schedule_write(line, now, u);
                let want = scan.schedule_write(line, now, u);
                assert_eq!(got, want, "{what}: write of {line:?} at {now}");
                assert_eq!(fast.write_lines, scan.write_lines, "{what}: lines per slot");
            } else {
                let got = fast.schedule_read(line, now, fwd, u);
                let want = scan.schedule_read(line, now, fwd, u);
                assert_eq!(got, want, "{what}: read of {line:?} at {now}");
            }
            assert_same_slots(&fast.reads, &scan.reads, &what);
            assert_same_slots(&fast.writes, &scan.writes, &what);
        }
    }

    #[test]
    fn slot_pick_matches_the_scan_on_random_streams() {
        for seed in 0..64 {
            match_scan_reference(seed);
        }
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
