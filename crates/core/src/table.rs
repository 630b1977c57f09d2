//! The standalone persistent checksum table (Figure 7(b)).
//!
//! The paper stores region checksums in a standalone hash structure rather
//! than embedding them in the protected data: embedding bloats the matrix
//! by `N²·P/bsize` and breaks layout optimizations. The table is sized so
//! that region keys map to entries *collision-free* (`(N/bsize)² · P`
//! entries for tiled matrix multiplication, keyed by `ii`, `kk` and the
//! thread id), so no locks are needed — different threads always touch
//! different entries.
//!
//! Entries start as an **invalid sentinel** so recovery can distinguish
//! "region never executed" from "region executed with some checksum"
//! (Section IV discusses using NaN or −1 for this purpose).

use lp_sim::core::CoreCtx;
use lp_sim::machine::Machine;
use lp_sim::mem::{OutOfPersistentMemory, PArray};

/// Sentinel marking a never-written entry.
pub const INVALID_ENTRY: u64 = u64::MAX;

/// A collision-free persistent table of region checksums.
///
/// The handle is `Copy`; the entries live in simulated persistent memory.
/// Writes go through the timed [`CoreCtx`] API so checksum persistence is
/// *lazy* exactly like the data it protects (Section III-D chooses lazy
/// checksums; eager-persisting them is an ablation the experiments cover).
///
/// # Examples
///
/// ```
/// use lp_sim::prelude::*;
/// use lp_core::table::ChecksumTable;
///
/// let mut m = Machine::new(MachineConfig::default().with_cores(1).with_nvmm_bytes(1 << 20));
/// let table = ChecksumTable::alloc(&mut m, 16).unwrap();
/// let mut ctx = m.ctx(0);
/// assert_eq!(table.load(&mut ctx, 3), None); // never written
/// table.store(&mut ctx, 3, 0xabcd);
/// assert_eq!(table.load(&mut ctx, 3), Some(0xabcd));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChecksumTable {
    entries: PArray<u64>,
}

impl ChecksumTable {
    /// Allocate a table with `entries` slots, all initialized to the
    /// invalid sentinel in the durable image (setup-time, untimed).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfPersistentMemory`] if the persistent heap is full.
    pub fn alloc(machine: &mut Machine, entries: usize) -> Result<Self, OutOfPersistentMemory> {
        let arr = machine.alloc::<u64>(entries)?;
        let table = ChecksumTable { entries: arr };
        table.reset(machine);
        Ok(table)
    }

    /// Re-initialize every entry to the invalid sentinel (untimed).
    pub fn reset(&self, machine: &mut Machine) {
        for i in 0..self.entries.len() {
            machine.poke(self.entries, i, INVALID_ENTRY);
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has zero slots.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Space overhead in bytes (for the paper's 1%-of-matrix claim).
    pub fn bytes(&self) -> u64 {
        self.entries.bytes()
    }

    /// The backing persistent array (for address-range tracking).
    pub fn array(&self) -> PArray<u64> {
        self.entries
    }

    /// Remap a checksum value the way [`ChecksumTable::store`] does, so
    /// external tools can predict the stored bits. Public counterpart of
    /// the internal sentinel-collision remap.
    pub fn sanitize_value(value: u64) -> u64 {
        Self::sanitize(value)
    }

    /// Checksum values can collide with the sentinel; remap that single
    /// value so a stored checksum is never read back as "invalid".
    #[inline]
    fn sanitize(value: u64) -> u64 {
        if value == INVALID_ENTRY {
            INVALID_ENTRY - 1
        } else {
            value
        }
    }

    /// Timed store of a region checksum (a plain lazy store: no flush, no
    /// fence — persistence happens via natural eviction).
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of range.
    pub fn store(&self, ctx: &mut CoreCtx<'_>, key: usize, value: u64) {
        ctx.store(self.entries, key, Self::sanitize(value));
    }

    /// Timed load; `None` if the entry was never written (or the write
    /// never persisted before a crash).
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of range.
    pub fn load(&self, ctx: &mut CoreCtx<'_>, key: usize) -> Option<u64> {
        let v: u64 = ctx.load(self.entries, key);
        (v != INVALID_ENTRY).then_some(v)
    }

    /// Timed comparison of a recomputed checksum against the stored entry.
    /// Returns `false` for never-written entries.
    pub fn matches(&self, ctx: &mut CoreCtx<'_>, key: usize, recomputed: u64) -> bool {
        self.load(ctx, key) == Some(Self::sanitize(recomputed))
    }

    /// Eagerly persist the entry for `key` (flush + fence). Used by the
    /// eager-checksum ablation and by recovery code, which must run with
    /// Eager Persistency to guarantee forward progress.
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of range.
    pub fn persist(&self, ctx: &mut CoreCtx<'_>, key: usize) {
        ctx.clflushopt(self.entries.addr(key));
        ctx.sfence();
    }

    /// Untimed read of the durable image (post-crash inspection in tests).
    pub fn peek(&self, machine: &Machine, key: usize) -> Option<u64> {
        let v = machine.peek(self.entries, key);
        (v != INVALID_ENTRY).then_some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_sim::config::MachineConfig;
    use lp_sim::prelude::CrashTrigger;

    fn machine() -> Machine {
        Machine::new(
            MachineConfig::default()
                .with_cores(2)
                .with_nvmm_bytes(1 << 20),
        )
    }

    #[test]
    fn starts_invalid_everywhere() {
        let mut m = machine();
        let t = ChecksumTable::alloc(&mut m, 32).unwrap();
        assert_eq!(t.len(), 32);
        assert_eq!(t.bytes(), 256);
        let mut ctx = m.ctx(0);
        for k in 0..32 {
            assert_eq!(t.load(&mut ctx, k), None);
        }
    }

    #[test]
    fn store_load_roundtrip_and_matches() {
        let mut m = machine();
        let t = ChecksumTable::alloc(&mut m, 8).unwrap();
        let mut ctx = m.ctx(0);
        t.store(&mut ctx, 2, 777);
        assert_eq!(t.load(&mut ctx, 2), Some(777));
        assert!(t.matches(&mut ctx, 2, 777));
        assert!(!t.matches(&mut ctx, 2, 778));
        assert!(!t.matches(&mut ctx, 3, 0));
    }

    #[test]
    fn sentinel_collision_is_remapped() {
        let mut m = machine();
        let t = ChecksumTable::alloc(&mut m, 4).unwrap();
        let mut ctx = m.ctx(0);
        t.store(&mut ctx, 0, INVALID_ENTRY);
        // Stored value is remapped, not lost.
        assert_eq!(t.load(&mut ctx, 0), Some(INVALID_ENTRY - 1));
        // matches() applies the same remap so callers never notice.
        assert!(t.matches(&mut ctx, 0, INVALID_ENTRY));
    }

    #[test]
    fn lazy_store_is_lost_on_crash_persist_survives() {
        let mut m = machine();
        let t = ChecksumTable::alloc(&mut m, 16).unwrap();
        {
            let mut ctx = m.ctx(0);
            // Keys 0 and 8 live on different cache lines (8 u64s per line),
            // so persisting one cannot drag the other along.
            t.store(&mut ctx, 0, 111); // lazy: cached only
            t.store(&mut ctx, 8, 222);
            t.persist(&mut ctx, 8); // eager: flushed + fenced
        }
        m.mem_mut().force_crash();
        m.mem_mut().acknowledge_crash();
        assert_eq!(t.peek(&m, 0), None, "lazy entry lost in crash");
        assert_eq!(t.peek(&m, 8), Some(222), "persisted entry survived");
    }

    #[test]
    fn reset_restores_invalid_after_use() {
        let mut m = machine();
        let t = ChecksumTable::alloc(&mut m, 4).unwrap();
        {
            let mut ctx = m.ctx(0);
            t.store(&mut ctx, 0, 5);
        }
        m.drain_caches();
        assert_eq!(t.peek(&m, 0), Some(5));
        t.reset(&mut m);
        assert_eq!(t.peek(&m, 0), None);
        let mut ctx = m.ctx(0);
        assert_eq!(t.load(&mut ctx, 0), None);
    }

    #[test]
    fn distinct_threads_distinct_entries_no_interference() {
        let mut m = machine();
        let t = ChecksumTable::alloc(&mut m, 8).unwrap();
        let mut plans = m.plans();
        plans[0].region(move |ctx| t.store(ctx, 0, 10));
        plans[1].region(move |ctx| t.store(ctx, 1, 20));
        m.run(plans);
        let mut ctx = m.ctx(0);
        assert_eq!(t.load(&mut ctx, 0), Some(10));
        assert_eq!(t.load(&mut ctx, 1), Some(20));
    }

    #[test]
    fn crash_trigger_mid_table_writes() {
        let mut m = machine();
        let t = ChecksumTable::alloc(&mut m, 64).unwrap();
        m.set_crash_trigger(CrashTrigger::AfterMemOps(5));
        let mut plans = m.plans();
        plans[0].region(move |ctx| {
            for k in 0..64 {
                t.store(ctx, k, k as u64 + 1);
            }
        });
        let outcome = m.run(plans);
        assert_eq!(outcome, lp_sim::machine::Outcome::Crashed);
        // Whatever did not persist reads as invalid.
        let survivors = (0..64).filter(|&k| t.peek(&m, k).is_some()).count();
        assert!(survivors < 64);
    }
}
