//! Set-associative cache arrays: per-core L1s and the shared inclusive L2
//! with a MESI-style directory.
//!
//! These types are *storage + replacement* only; the coherence and timing
//! logic that ties them together lives in [`crate::memsys`]. The hierarchy
//! is writeback/write-allocate with LRU replacement, 64-byte lines, and an
//! inclusive L2 that tracks which cores hold each line (sharer bitmask) and
//! whether one core holds it exclusively (owner).
//!
//! Both caches can be `reset()` to their newly built state in time
//! proportional to the ways filled since the last reset, not to the array
//! size: a way whose LRU stamp is 0 has never been filled (every fill and
//! touch stamps a tick `>= 1`), so each cache records a way the first
//! time a fill lands on such a *pristine* way. The record can never
//! outgrow the way count, however often lines are flushed and refilled.

use crate::addr::{LineAddr, LINE_BYTES};

/// MESI coherence state of an L1 line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mesi {
    /// Dirty, exclusive to one core.
    Modified,
    /// Clean, exclusive to one core.
    Exclusive,
    /// Clean, possibly held by several cores.
    Shared,
    /// Not present.
    Invalid,
}

/// One L1 line: identity, state, payload, replacement and dirty metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct L1Line {
    /// Line address (valid only when `state != Invalid`).
    pub line: LineAddr,
    /// MESI state.
    pub state: Mesi,
    /// Line payload.
    pub data: [u8; LINE_BYTES],
    /// LRU timestamp.
    pub lru: u64,
    /// Cycle at which the line first became dirty (valid when `Modified`).
    pub dirty_since: u64,
}

impl Default for L1Line {
    fn default() -> Self {
        L1Line {
            line: LineAddr(0),
            state: Mesi::Invalid,
            data: [0u8; LINE_BYTES],
            lru: 0,
            dirty_since: 0,
        }
    }
}

/// A line evicted or invalidated from an L1, with its payload so dirty data
/// can be propagated down the hierarchy.
#[derive(Debug, Clone)]
pub struct EvictedL1 {
    /// Which line was removed.
    pub line: LineAddr,
    /// State it held at removal.
    pub state: Mesi,
    /// Payload at removal.
    pub data: [u8; LINE_BYTES],
    /// When it became dirty (meaningful only if `state == Modified`).
    pub dirty_since: u64,
}

/// A private, set-associative, writeback L1 data cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct L1Cache {
    set_bits: u32,
    assoc: usize,
    lines: Vec<L1Line>,
    tick: u64,
    /// Ways filled while pristine (LRU stamp 0) since the last reset.
    filled: Vec<u32>,
}

impl L1Cache {
    /// Build an L1 of `bytes` capacity and `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not yield a power-of-two set count.
    pub fn new(bytes: usize, assoc: usize) -> Self {
        let sets = bytes / (assoc * LINE_BYTES);
        assert!(sets.is_power_of_two() && sets > 0, "bad L1 geometry");
        L1Cache {
            set_bits: sets.trailing_zeros(),
            assoc,
            lines: vec![L1Line::default(); sets * assoc],
            tick: 0,
            filled: Vec::new(),
        }
    }

    /// Restore the cache to exactly its newly built state (`==` to
    /// [`L1Cache::new`] of the same geometry), touching only the ways
    /// filled since the last reset.
    pub(crate) fn reset(&mut self) {
        for &i in &self.filled {
            self.lines[i as usize] = L1Line::default();
        }
        self.filled.clear();
        self.tick = 0;
    }

    fn set_range(&self, line: LineAddr) -> std::ops::Range<usize> {
        let set = line.set_index(self.set_bits);
        let start = set * self.assoc;
        start..start + self.assoc
    }

    /// Index of the way holding `line`, if present.
    pub fn find(&self, line: LineAddr) -> Option<usize> {
        self.set_range(line)
            .find(|&i| self.lines[i].state != Mesi::Invalid && self.lines[i].line == line)
    }

    /// Immutable access to a way by index.
    pub fn way(&self, idx: usize) -> &L1Line {
        &self.lines[idx]
    }

    /// Mutable access to a way by index. The way must have been filled
    /// (a pristine way's edits would survive `reset()`).
    pub fn way_mut(&mut self, idx: usize) -> &mut L1Line {
        debug_assert_ne!(self.lines[idx].lru, 0, "editing a never-filled way");
        &mut self.lines[idx]
    }

    /// Refresh the LRU timestamp of a (filled) way.
    pub fn touch(&mut self, idx: usize) {
        debug_assert_ne!(self.lines[idx].lru, 0, "touching a never-filled way");
        self.tick += 1;
        self.lines[idx].lru = self.tick;
    }

    /// Install `line` (evicting the LRU way if the set is full) and return
    /// the victim, if one was displaced. The caller must propagate dirty
    /// victims into the L2.
    pub fn insert(
        &mut self,
        line: LineAddr,
        data: [u8; LINE_BYTES],
        state: Mesi,
        dirty_since: u64,
    ) -> (usize, Option<EvictedL1>) {
        debug_assert!(self.find(line).is_none(), "inserting a resident line");
        let range = self.set_range(line);
        // Prefer an invalid way; otherwise evict the LRU way.
        let idx = range
            .clone()
            .find(|&i| self.lines[i].state == Mesi::Invalid)
            .unwrap_or_else(|| {
                range
                    .min_by_key(|&i| self.lines[i].lru)
                    .expect("associativity >= 1")
            });
        let victim = if self.lines[idx].state != Mesi::Invalid {
            let l = &self.lines[idx];
            Some(EvictedL1 {
                line: l.line,
                state: l.state,
                data: l.data,
                dirty_since: l.dirty_since,
            })
        } else {
            None
        };
        if self.lines[idx].lru == 0 {
            self.filled.push(idx as u32);
        }
        self.tick += 1;
        self.lines[idx] = L1Line {
            line,
            state,
            data,
            lru: self.tick,
            dirty_since,
        };
        (idx, victim)
    }

    /// Remove `line` if present, returning its contents.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<EvictedL1> {
        let idx = self.find(line)?;
        let l = &mut self.lines[idx];
        let out = EvictedL1 {
            line: l.line,
            state: l.state,
            data: l.data,
            dirty_since: l.dirty_since,
        };
        l.state = Mesi::Invalid;
        Some(out)
    }

    /// Drop every line without writing anything back (crash semantics).
    pub fn wipe(&mut self) {
        for l in &mut self.lines {
            l.state = Mesi::Invalid;
        }
    }

    /// Iterate over valid ways (for cleaners/drains).
    pub fn valid_ways(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.lines.len()).filter(|&i| self.lines[i].state != Mesi::Invalid)
    }

    /// Number of resident lines.
    pub fn resident(&self) -> usize {
        self.valid_ways().count()
    }
}

/// One L2 line with directory state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct L2Line {
    /// Line address (valid only when `valid`).
    pub line: LineAddr,
    /// Whether the entry holds a line.
    pub valid: bool,
    /// Whether the L2 copy (or an upstream L1 copy) is dirty relative to NVMM.
    pub dirty: bool,
    /// Payload. May be stale while a core holds the line `Modified`; the
    /// directory `owner` says where the freshest copy is.
    pub data: [u8; LINE_BYTES],
    /// LRU timestamp.
    pub lru: u64,
    /// Cycle the line (anywhere in the hierarchy) first became dirty.
    pub dirty_since: u64,
    /// Bitmask of cores holding a valid L1 copy.
    pub sharers: u64,
    /// Core holding the line `Exclusive`/`Modified`, if any.
    pub owner: Option<u8>,
}

impl Default for L2Line {
    fn default() -> Self {
        L2Line {
            line: LineAddr(0),
            valid: false,
            dirty: false,
            data: [0u8; LINE_BYTES],
            lru: 0,
            dirty_since: 0,
            sharers: 0,
            owner: None,
        }
    }
}

/// The shared, inclusive, writeback L2 with an in-cache directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct L2Cache {
    set_bits: u32,
    assoc: usize,
    lines: Vec<L2Line>,
    tick: u64,
    /// Ways filled while pristine (LRU stamp 0) since the last reset.
    filled: Vec<u32>,
}

impl L2Cache {
    /// Build an L2 of `bytes` capacity and `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not yield a power-of-two set count.
    pub fn new(bytes: usize, assoc: usize) -> Self {
        let sets = bytes / (assoc * LINE_BYTES);
        assert!(sets.is_power_of_two() && sets > 0, "bad L2 geometry");
        L2Cache {
            set_bits: sets.trailing_zeros(),
            assoc,
            lines: vec![L2Line::default(); sets * assoc],
            tick: 0,
            filled: Vec::new(),
        }
    }

    /// Restore the cache to exactly its newly built state (`==` to
    /// [`L2Cache::new`] of the same geometry), touching only the ways
    /// filled since the last reset.
    pub(crate) fn reset(&mut self) {
        for &i in &self.filled {
            self.lines[i as usize] = L2Line::default();
        }
        self.filled.clear();
        self.tick = 0;
    }

    fn set_range(&self, line: LineAddr) -> std::ops::Range<usize> {
        let set = line.set_index(self.set_bits);
        let start = set * self.assoc;
        start..start + self.assoc
    }

    /// Index of the way holding `line`, if present.
    pub fn find(&self, line: LineAddr) -> Option<usize> {
        self.set_range(line)
            .find(|&i| self.lines[i].valid && self.lines[i].line == line)
    }

    /// Immutable access to a way by index.
    pub fn way(&self, idx: usize) -> &L2Line {
        &self.lines[idx]
    }

    /// Mutable access to a way by index. The way must have been filled
    /// (a pristine way's edits would survive `reset()`).
    pub fn way_mut(&mut self, idx: usize) -> &mut L2Line {
        debug_assert_ne!(self.lines[idx].lru, 0, "editing a never-filled way");
        &mut self.lines[idx]
    }

    /// Refresh the LRU timestamp of a (filled) way.
    pub fn touch(&mut self, idx: usize) {
        debug_assert_ne!(self.lines[idx].lru, 0, "touching a never-filled way");
        self.tick += 1;
        self.lines[idx].lru = self.tick;
    }

    /// Pick the way `line` would be installed into: an invalid way if one
    /// exists, else the LRU way (whose current occupant must be evicted by
    /// the caller first).
    pub fn victim_way(&self, line: LineAddr) -> usize {
        let range = self.set_range(line);
        range
            .clone()
            .find(|&i| !self.lines[i].valid)
            .unwrap_or_else(|| {
                range
                    .min_by_key(|&i| self.lines[i].lru)
                    .expect("associativity >= 1")
            })
    }

    /// Install `line` into way `idx` (caller has already evicted the
    /// previous occupant).
    pub fn install(
        &mut self,
        idx: usize,
        line: LineAddr,
        data: [u8; LINE_BYTES],
        sharer: usize,
        owner: bool,
    ) {
        if self.lines[idx].lru == 0 {
            self.filled.push(idx as u32);
        }
        self.tick += 1;
        self.lines[idx] = L2Line {
            line,
            valid: true,
            dirty: false,
            data,
            lru: self.tick,
            dirty_since: 0,
            sharers: 1u64 << sharer,
            owner: if owner { Some(sharer as u8) } else { None },
        };
    }

    /// Drop every line without writing anything back (crash semantics).
    pub fn wipe(&mut self) {
        for l in &mut self.lines {
            l.valid = false;
            l.dirty = false;
            l.sharers = 0;
            l.owner = None;
        }
    }

    /// Iterate over valid ways (for cleaners/drains/eviction walks).
    pub fn valid_ways(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.lines.len()).filter(|&i| self.lines[i].valid)
    }

    /// Total way count (valid or not), for index-based walks that must
    /// mutate the cache mid-iteration without collecting indices first.
    pub fn num_ways(&self) -> usize {
        self.lines.len()
    }

    /// Number of resident lines.
    pub fn resident(&self) -> usize {
        self.valid_ways().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(v: u8) -> [u8; LINE_BYTES] {
        [v; LINE_BYTES]
    }

    #[test]
    fn l1_insert_find_touch() {
        let mut c = L1Cache::new(2 * 1024, 2); // 16 sets, 2 ways
        assert_eq!(c.find(LineAddr(5)), None);
        let (idx, victim) = c.insert(LineAddr(5), data(1), Mesi::Exclusive, 0);
        assert!(victim.is_none());
        assert_eq!(c.find(LineAddr(5)), Some(idx));
        assert_eq!(c.way(idx).data[0], 1);
    }

    #[test]
    fn l1_lru_eviction_within_set() {
        let mut c = L1Cache::new(2 * 1024, 2); // 16 sets
                                               // Lines 0, 16, 32 map to set 0.
        c.insert(LineAddr(0), data(1), Mesi::Shared, 0);
        c.insert(LineAddr(16), data(2), Mesi::Shared, 0);
        // Touch line 0 so 16 is the LRU victim.
        let i0 = c.find(LineAddr(0)).unwrap();
        c.touch(i0);
        let (_, victim) = c.insert(LineAddr(32), data(3), Mesi::Shared, 0);
        let victim = victim.expect("set was full");
        assert_eq!(victim.line, LineAddr(16));
        assert!(c.find(LineAddr(0)).is_some());
        assert!(c.find(LineAddr(16)).is_none());
        assert!(c.find(LineAddr(32)).is_some());
    }

    #[test]
    fn l1_invalidate_returns_payload() {
        let mut c = L1Cache::new(2 * 1024, 2);
        c.insert(LineAddr(7), data(9), Mesi::Modified, 42);
        let ev = c.invalidate(LineAddr(7)).unwrap();
        assert_eq!(ev.state, Mesi::Modified);
        assert_eq!(ev.dirty_since, 42);
        assert_eq!(ev.data[0], 9);
        assert!(c.find(LineAddr(7)).is_none());
        assert!(c.invalidate(LineAddr(7)).is_none());
    }

    #[test]
    fn l1_wipe_drops_everything() {
        let mut c = L1Cache::new(2 * 1024, 2);
        c.insert(LineAddr(1), data(1), Mesi::Modified, 0);
        c.insert(LineAddr(2), data(2), Mesi::Shared, 0);
        assert_eq!(c.resident(), 2);
        c.wipe();
        assert_eq!(c.resident(), 0);
    }

    #[test]
    fn l2_install_and_directory() {
        let mut c = L2Cache::new(8 * 1024, 4);
        let way = c.victim_way(LineAddr(3));
        assert!(!c.way(way).valid);
        c.install(way, LineAddr(3), data(7), 2, true);
        let idx = c.find(LineAddr(3)).unwrap();
        assert_eq!(c.way(idx).sharers, 0b100);
        assert_eq!(c.way(idx).owner, Some(2));
        assert!(!c.way(idx).dirty);
    }

    #[test]
    fn l2_victim_prefers_invalid_then_lru() {
        let mut c = L2Cache::new(512, 2); // 4 sets; lines 0,4,8 map to set 0
        let w0 = c.victim_way(LineAddr(0));
        c.install(w0, LineAddr(0), data(0), 0, false);
        let w1 = c.victim_way(LineAddr(4));
        assert_ne!(w0, w1);
        c.install(w1, LineAddr(4), data(0), 0, false);
        // Touch line 0; victim for line 8 should be way of line 4.
        let i0 = c.find(LineAddr(0)).unwrap();
        c.touch(i0);
        let v = c.victim_way(LineAddr(8));
        assert_eq!(c.way(v).line, LineAddr(4));
    }

    #[test]
    fn l2_wipe_clears_directory() {
        let mut c = L2Cache::new(512, 2);
        let w = c.victim_way(LineAddr(0));
        c.install(w, LineAddr(0), data(1), 1, true);
        c.wipe();
        assert_eq!(c.resident(), 0);
        assert!(c.find(LineAddr(0)).is_none());
    }

    /// Drive `c` through inserts (with evictions), touches, invalidations
    /// and a wipe over lines `0..n`.
    fn churn_l1(c: &mut L1Cache, n: u64) {
        for i in 0..n {
            c.insert(LineAddr(i * 7), data(i as u8), Mesi::Modified, i);
            if let Some(idx) = c.find(LineAddr(i * 7 / 2 * 2)) {
                c.touch(idx);
            }
            if i % 3 == 0 {
                c.invalidate(LineAddr(i * 7));
            }
        }
    }

    fn churn_l2(c: &mut L2Cache, n: u64) {
        for i in 0..n {
            let line = LineAddr(i * 5);
            let way = c.victim_way(line);
            c.install(way, line, data(i as u8), (i % 4) as usize, i % 2 == 0);
            c.way_mut(way).dirty = true;
            if let Some(idx) = c.find(LineAddr(i * 5 / 2 * 2)) {
                c.touch(idx);
            }
            if i % 3 == 0 {
                c.way_mut(way).valid = false;
            }
        }
    }

    #[test]
    fn reset_restores_a_newly_built_l1() {
        for n in [0, 1, 5, 40, 400] {
            let mut c = L1Cache::new(2 * 1024, 2);
            churn_l1(&mut c, n);
            c.reset();
            assert_eq!(c, L1Cache::new(2 * 1024, 2), "after {n} inserts");
            churn_l1(&mut c, n);
            c.wipe();
            c.reset();
            assert_eq!(c, L1Cache::new(2 * 1024, 2), "after {n} inserts and a wipe");
        }
    }

    #[test]
    fn reset_restores_a_newly_built_l2() {
        for n in [0, 1, 5, 40, 400] {
            let mut c = L2Cache::new(4 * 1024, 4);
            churn_l2(&mut c, n);
            c.reset();
            assert_eq!(c, L2Cache::new(4 * 1024, 4), "after {n} installs");
            churn_l2(&mut c, n);
            c.wipe();
            c.reset();
            assert_eq!(
                c,
                L2Cache::new(4 * 1024, 4),
                "after {n} installs and a wipe"
            );
        }
    }

    #[test]
    fn fill_list_never_outgrows_the_way_count() {
        // Flush/refill churn: the refill lands on the invalidated (but no
        // longer pristine) way, so nothing is recorded twice.
        let mut l1 = L1Cache::new(2 * 1024, 2);
        let mut l2 = L2Cache::new(512, 2);
        for round in 0..1000u64 {
            let line = LineAddr(round % 97);
            l1.insert(line, data(1), Mesi::Modified, round);
            l1.invalidate(line);
            l1.insert(line, data(2), Mesi::Exclusive, 0);
            l1.invalidate(line);
            let way = l2.victim_way(line);
            l2.install(way, line, data(1), 0, true);
            l2.way_mut(way).valid = false;
            let way = l2.victim_way(line);
            l2.install(way, line, data(2), 1, false);
            l2.way_mut(way).valid = false;
            assert!(l1.filled.len() <= l1.lines.len());
            assert!(l2.filled.len() <= l2.lines.len());
        }
        for filled in [&l1.filled, &l2.filled] {
            let mut ways = filled.clone();
            ways.sort_unstable();
            ways.dedup();
            assert_eq!(ways.len(), filled.len(), "a way was recorded twice");
        }
    }
}
