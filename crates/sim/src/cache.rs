//! Set-associative cache arrays: per-core L1s and the shared inclusive L2
//! with a MESI-style directory.
//!
//! These types are *storage + replacement* only; the coherence and timing
//! logic that ties them together lives in [`crate::memsys`]. The hierarchy
//! is writeback/write-allocate with LRU replacement, 64-byte lines, and an
//! inclusive L2 that tracks which cores hold each line (sharer bitmask) and
//! whether one core holds it exclusively (owner). Both levels are one
//! generic way array, [`Cache`], over their line type ([`Way`]).
//!
//! Every whole-cache walk (`reset()`, `wipe()`, `valid_ways()`) costs
//! the ways filled since the last reset, not the array size: a way whose
//! LRU stamp is 0 has never been filled (every fill and touch stamps a
//! tick `>= 1`), so each cache sets a way's bit in a fill map
//! (`FillMap`) the first time a fill lands on such a *pristine* way. A
//! pristine way is never valid, so walking the set bits in ascending
//! order visits the valid ways in the same order as a sweep over the
//! whole array.

use crate::addr::{LineAddr, LINE_BYTES};

/// One bit per cache way: the ways filled since the last reset.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FillMap(Vec<u64>);

impl FillMap {
    fn new(ways: usize) -> Self {
        FillMap(vec![0; ways.div_ceil(64)])
    }

    fn insert(&mut self, way: usize) {
        self.0[way / 64] |= 1 << (way % 64);
    }

    fn contains(&self, way: usize) -> bool {
        self.0[way / 64] & (1 << (way % 64)) != 0
    }

    /// The lowest recorded way `>= from`.
    fn next(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = self.0.get(w)? & (!0u64 << (from % 64));
        while bits == 0 {
            w += 1;
            bits = *self.0.get(w)?;
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
    }

    /// The recorded ways, ascending.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.next(0), |&w| self.next(w + 1))
    }
}

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

/// What the shared way array needs to know about a line.
pub trait Way: Clone + Default {
    /// Whether the way holds a line.
    fn holds(&self) -> bool;
    /// The line held (meaningful only when [`Way::holds`]).
    fn tag(&self) -> LineAddr;
    /// LRU timestamp (0 only on a way never filled since the last reset).
    fn lru(&self) -> u64;
    /// Restamp the LRU timestamp.
    fn set_lru(&mut self, tick: u64);
}

impl Way for L1Line {
    fn holds(&self) -> bool {
        self.state != Mesi::Invalid
    }
    fn tag(&self) -> LineAddr {
        self.line
    }
    fn lru(&self) -> u64 {
        self.lru
    }
    fn set_lru(&mut self, tick: u64) {
        self.lru = tick;
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

impl L2Line {
    /// Fold a `Modified` L1 copy of this line into the way: take its
    /// `data`, keep the older of the two dirty-since times, and mark the
    /// way dirty.
    pub(crate) fn fold_modified(&mut self, data: [u8; LINE_BYTES], dirty_since: u64) {
        self.data = data;
        self.dirty_since = if self.dirty {
            self.dirty_since.min(dirty_since)
        } else {
            dirty_since
        };
        self.dirty = true;
    }

    /// Drop the line with its directory state: not valid, not dirty, no
    /// sharers, no owner. The data is left as it was.
    pub(crate) fn drop_line(&mut self) {
        self.valid = false;
        self.dirty = false;
        self.sharers = 0;
        self.owner = None;
    }
}

impl Way for L2Line {
    fn holds(&self) -> bool {
        self.valid
    }
    fn tag(&self) -> LineAddr {
        self.line
    }
    fn lru(&self) -> u64 {
        self.lru
    }
    fn set_lru(&mut self, tick: u64) {
        self.lru = tick;
    }
}

/// A set-associative array of ways with LRU replacement: the storage
/// both cache levels share.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cache<W> {
    set_bits: u32,
    assoc: usize,
    lines: Vec<W>,
    tick: u64,
    /// Ways filled while pristine (LRU stamp 0) since the last reset.
    filled: FillMap,
}

/// A private, set-associative, writeback L1 data cache.
pub type L1Cache = Cache<L1Line>;

/// The shared, inclusive, writeback L2 with an in-cache directory.
pub type L2Cache = Cache<L2Line>;

impl<W: Way> Cache<W> {
    /// Build a cache of `bytes` capacity and `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not yield a power-of-two set count.
    pub fn new(bytes: usize, assoc: usize) -> Self {
        let sets = bytes / (assoc * LINE_BYTES);
        assert!(sets.is_power_of_two() && sets > 0, "bad cache geometry");
        Cache {
            set_bits: sets.trailing_zeros(),
            assoc,
            lines: vec![W::default(); sets * assoc],
            tick: 0,
            filled: FillMap::new(sets * assoc),
        }
    }

    /// Restore the cache to exactly its newly built state (`==` to
    /// [`Cache::new`] of the same geometry), touching only the ways
    /// filled since the last reset.
    pub(crate) fn reset(&mut self) {
        for i in self.filled.iter() {
            self.lines[i] = W::default();
        }
        self.filled.0.fill(0);
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
            .find(|&i| self.lines[i].holds() && self.lines[i].tag() == line)
    }

    /// Immutable access to a way by index.
    pub fn way(&self, idx: usize) -> &W {
        &self.lines[idx]
    }

    /// Mutable access to a way by index. The way must have been filled
    /// (a pristine way's edits would survive `reset()`).
    pub fn way_mut(&mut self, idx: usize) -> &mut W {
        debug_assert_ne!(self.lines[idx].lru(), 0, "editing a never-filled way");
        &mut self.lines[idx]
    }

    /// Refresh the LRU timestamp of a (filled) way.
    pub fn touch(&mut self, idx: usize) {
        debug_assert_ne!(self.lines[idx].lru(), 0, "touching a never-filled way");
        self.tick += 1;
        self.lines[idx].set_lru(self.tick);
    }

    /// Pick the way `line` would be installed into: an invalid way if one
    /// exists, else the LRU way (whose current occupant must be evicted by
    /// the caller first).
    pub fn victim_way(&self, line: LineAddr) -> usize {
        let range = self.set_range(line);
        range
            .clone()
            .find(|&i| !self.lines[i].holds())
            .unwrap_or_else(|| {
                range
                    .min_by_key(|&i| self.lines[i].lru())
                    .expect("associativity >= 1")
            })
    }

    /// Store `line` into way `idx`, stamped with the next tick, and
    /// record the way if it was pristine.
    fn fill(&mut self, idx: usize, mut line: W) {
        if self.lines[idx].lru() == 0 {
            self.filled.insert(idx);
        }
        self.tick += 1;
        line.set_lru(self.tick);
        self.lines[idx] = line;
    }

    /// Iterate over valid ways, ascending (for cleaners/drains/eviction
    /// walks).
    pub fn valid_ways(&self) -> impl Iterator<Item = usize> + '_ {
        self.filled.iter().filter(|&i| self.lines[i].holds())
    }

    /// The lowest way `>= from` filled since the last reset, for
    /// ascending walks that mutate the cache mid-iteration without
    /// collecting indices first (every valid way is filled).
    pub(crate) fn next_filled_way(&self, from: usize) -> Option<usize> {
        self.filled.next(from)
    }

    /// Whether way `idx` has been filled since the last reset.
    pub(crate) fn is_filled(&self, idx: usize) -> bool {
        self.filled.contains(idx)
    }

    /// Total way count (valid or not), for walks that must not trust the
    /// fill map (the coherence checker).
    pub fn num_ways(&self) -> usize {
        self.lines.len()
    }

    /// Drop every fill bit, leaving the lines alone: a broken fill map
    /// for the coherence checker's tests.
    #[cfg(test)]
    pub(crate) fn forget_fills(&mut self) {
        self.filled.0.fill(0);
    }

    /// Number of resident lines.
    #[cfg(test)]
    pub(crate) fn resident(&self) -> usize {
        self.valid_ways().count()
    }
}

impl L1Cache {
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
        let idx = self.victim_way(line);
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
        self.fill(
            idx,
            L1Line {
                line,
                state,
                data,
                lru: 0,
                dirty_since,
            },
        );
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
        for i in self.filled.iter() {
            self.lines[i].state = Mesi::Invalid;
        }
    }
}

impl L2Cache {
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
        self.fill(
            idx,
            L2Line {
                line,
                valid: true,
                dirty: false,
                data,
                lru: 0,
                dirty_since: 0,
                sharers: 1u64 << sharer,
                owner: if owner { Some(sharer as u8) } else { None },
            },
        );
    }

    /// Drop every line without writing anything back (crash semantics).
    pub fn wipe(&mut self) {
        for i in self.filled.iter() {
            self.lines[i].drop_line();
        }
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

    /// Brute-force reference for `valid_ways`: every way of the array,
    /// ascending, that holds a line.
    fn valid_by_sweep_l1(c: &L1Cache) -> Vec<usize> {
        (0..c.lines.len())
            .filter(|&i| c.lines[i].state != Mesi::Invalid)
            .collect()
    }

    fn valid_by_sweep_l2(c: &L2Cache) -> Vec<usize> {
        (0..c.lines.len()).filter(|&i| c.lines[i].valid).collect()
    }

    #[test]
    fn fill_map_walks_match_a_full_sweep_under_random_churn() {
        use crate::rng::Rng64;
        // Geometries with fewer, exactly 64 and more than 64 ways, so
        // the walks cross word boundaries of the map.
        for (seed, bytes, assoc) in [(1u64, 1024, 2), (2, 4096, 4), (3, 8192, 1), (4, 512, 8)] {
            let mut rng = Rng64::new(seed);
            let mut l1 = L1Cache::new(bytes, assoc);
            let mut l2 = L2Cache::new(bytes, assoc);
            let lines = 4 * (bytes / LINE_BYTES) as u64;
            for step in 0..4000 {
                let line = LineAddr(rng.below(lines as usize) as u64);
                match rng.below(100) {
                    0..=44 => {
                        if l1.find(line).is_none() {
                            l1.insert(line, data(step as u8), Mesi::Modified, step);
                        }
                        if l2.find(line).is_none() {
                            let way = l2.victim_way(line);
                            l2.install(way, line, data(step as u8), 0, true);
                            l2.way_mut(way).dirty = true;
                        }
                    }
                    45..=69 => {
                        if let Some(i) = l1.find(line) {
                            l1.touch(i);
                        }
                        if let Some(i) = l2.find(line) {
                            l2.touch(i);
                        }
                    }
                    70..=94 => {
                        l1.invalidate(line);
                        if let Some(i) = l2.find(line) {
                            l2.way_mut(i).valid = false;
                        }
                    }
                    95..=97 => {
                        l1.wipe();
                        l2.wipe();
                    }
                    _ => {
                        l1.reset();
                        l2.reset();
                        assert_eq!(l1, L1Cache::new(bytes, assoc), "seed {seed} step {step}");
                        assert_eq!(l2, L2Cache::new(bytes, assoc), "seed {seed} step {step}");
                    }
                }
                assert_eq!(
                    l1.valid_ways().collect::<Vec<_>>(),
                    valid_by_sweep_l1(&l1),
                    "L1 seed {seed} step {step}"
                );
                assert_eq!(
                    l2.valid_ways().collect::<Vec<_>>(),
                    valid_by_sweep_l2(&l2),
                    "L2 seed {seed} step {step}"
                );
                // A way is recorded exactly when it is no longer pristine.
                for i in 0..l1.lines.len() {
                    assert_eq!(l1.is_filled(i), l1.lines[i].lru != 0, "L1 way {i}");
                }
                for i in 0..l2.lines.len() {
                    assert_eq!(l2.is_filled(i), l2.lines[i].lru != 0, "L2 way {i}");
                }
            }
            l1.reset();
            l2.reset();
            assert_eq!(l1, L1Cache::new(bytes, assoc));
            assert_eq!(l2, L2Cache::new(bytes, assoc));
        }
    }

    #[test]
    fn fill_map_next_walks_set_bits_across_words() {
        let mut m = FillMap::new(200);
        assert_eq!(m.next(0), None);
        for w in [0, 63, 64, 130, 199] {
            m.insert(w);
        }
        assert_eq!(m.iter().collect::<Vec<_>>(), [0, 63, 64, 130, 199]);
        assert_eq!(m.next(1), Some(63));
        assert_eq!(m.next(65), Some(130));
        assert_eq!(m.next(200), None);
        assert_eq!(m.next(10_000), None);
        m.0.fill(0);
        assert_eq!(m, FillMap::new(200));
    }
}
