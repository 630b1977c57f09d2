//! Observer hook over the simulator's memory-event stream.
//!
//! External tools (today the `lp-check` persistency sanitizer) can
//! install an [`EventSink`] on a machine and receive every store, load,
//! flush, fence, durable writeback, barrier, region boundary, and crash as
//! it happens — with the issuing core, its cycle clock, and the dynamic
//! region the core was executing.
//!
//! The hook is strictly opt-in: a default-constructed machine holds an
//! empty [`ObserverSlot`] (no allocation), every emission site is guarded
//! by a single `Option` check, and the observer can only *watch* — it
//! receives events by reference and has no channel back into the timing or
//! functional model, so instrumented runs report bit-identical cycle
//! counts and statistics.
//!
//! Sinks are held behind `Arc<Mutex<…>>` and must be `Send` so that a
//! fully-instrumented machine remains `Send` and can be driven by the
//! parallel exploration engine. The mutex is uncontended in practice —
//! each machine runs on exactly one host thread at a time — so the lock
//! is a cheap formality, not a synchronization point.

use std::sync::{Arc, Mutex};

use crate::addr::{Addr, LineAddr};
use crate::stats::WriteCause;

/// Identity of one dynamic region execution.
///
/// Assigned from a machine-global monotonic counter when the region is
/// announced via [`crate::core::CoreCtx::region_begin`]; two executions of
/// the same static region (same checksum key) get distinct ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u64);

impl std::fmt::Display for RegionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "region#{}", self.0)
    }
}

/// One observable memory-system event.
///
/// `region` fields carry the dynamic region the issuing core had open (via
/// [`crate::core::CoreCtx::region_begin`]) at the time of the event, or
/// `None` outside any region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemEvent {
    /// A timed scalar store was architecturally performed.
    Store {
        /// Issuing core.
        core: usize,
        /// Core-local cycle at issue.
        cycle: u64,
        /// Byte address written.
        addr: Addr,
        /// Value written, widened to a 64-bit little-endian bit pattern.
        bits: u64,
        /// Scalar size in bytes.
        size: usize,
        /// Open region of the issuing core, if any.
        region: Option<RegionId>,
    },
    /// A timed scalar load completed.
    Load {
        /// Issuing core.
        core: usize,
        /// Core-local cycle at issue.
        cycle: u64,
        /// Byte address read.
        addr: Addr,
        /// Scalar size in bytes.
        size: usize,
        /// Open region of the issuing core, if any.
        region: Option<RegionId>,
    },
    /// A `clflushopt` (`keep == false`) or `clwb` (`keep == true`) was
    /// issued for a line (whether or not it was dirty).
    Flush {
        /// Issuing core.
        core: usize,
        /// Core-local cycle at issue.
        cycle: u64,
        /// The targeted line.
        line: LineAddr,
        /// `true` for `clwb` (line retained clean), `false` for
        /// `clflushopt` (line invalidated).
        keep: bool,
        /// Open region of the issuing core, if any.
        region: Option<RegionId>,
    },
    /// An `sfence` retired: every prior store/flush of the core is now
    /// complete (durable, for flushes, per ADR).
    Sfence {
        /// Issuing core.
        core: usize,
        /// Core-local cycle after the fence drained.
        cycle: u64,
        /// Open region of the issuing core, if any.
        region: Option<RegionId>,
    },
    /// A line's current contents reached the durable NVMM image (natural
    /// eviction, explicit flush/clwb, cleaner sweep, or harness drain).
    LineDurable {
        /// The line written back.
        line: LineAddr,
        /// Global time of the writeback.
        cycle: u64,
        /// Why the line was written.
        cause: WriteCause,
    },
    /// The scheduler released a synchronization barrier; all waiting
    /// cores' clocks were aligned to `cycle`.
    Barrier {
        /// The post-barrier common cycle.
        cycle: u64,
    },
    /// A core announced the start of a persistency region.
    RegionBegin {
        /// The core opening the region.
        core: usize,
        /// Core-local cycle.
        cycle: u64,
        /// The new region's dynamic identity.
        region: RegionId,
        /// The region's checksum-table / marker key.
        key: usize,
    },
    /// A core announced the end (commit) of its open persistency region.
    RegionCommit {
        /// The core committing.
        core: usize,
        /// Core-local cycle.
        cycle: u64,
        /// The closed region's dynamic identity.
        region: RegionId,
        /// The region's checksum-table / marker key.
        key: usize,
    },
    /// The machine lost power: every cached (non-durable) line is gone.
    Crash {
        /// Global time of the crash.
        cycle: u64,
    },
}

/// Receiver of the event stream.
///
/// Implementations observe only — the simulator's behaviour is identical
/// with or without a sink installed.
pub trait EventSink {
    /// Called once per event, in simulation order.
    fn on_event(&mut self, ev: &MemEvent);
}

/// Shared handle to an installed sink (the machine and the caller both
/// keep one so the caller can inspect accumulated state after a run).
pub type SharedSink = Arc<Mutex<dyn EventSink + Send>>;

/// The memory system's (optional) observer.
///
/// Defaults to empty; [`crate::machine::Machine::set_observer`] installs a
/// sink. A newtype rather than a bare `Option` so the containing structs
/// can keep deriving `Debug`.
#[derive(Default)]
pub struct ObserverSlot(Option<SharedSink>);

impl std::fmt::Debug for ObserverSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "ObserverSlot(installed)"
        } else {
            "ObserverSlot(none)"
        })
    }
}

impl ObserverSlot {
    /// Install a sink (replacing any previous one).
    pub fn install(&mut self, sink: SharedSink) {
        self.0 = Some(sink);
    }

    /// Remove the sink, restoring the zero-overhead default.
    pub fn clear(&mut self) {
        self.0 = None;
    }

    /// Whether a sink is installed (the emission-site guard).
    #[inline]
    pub fn is_some(&self) -> bool {
        self.0.is_some()
    }

    /// Deliver one event to the sink, if any.
    #[inline]
    pub fn emit(&self, ev: MemEvent) {
        if let Some(sink) = &self.0 {
            sink.lock().unwrap().on_event(&ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Collector(Vec<MemEvent>);
    impl EventSink for Collector {
        fn on_event(&mut self, ev: &MemEvent) {
            self.0.push(*ev);
        }
    }

    #[test]
    fn empty_slot_drops_events() {
        let slot = ObserverSlot::default();
        assert!(!slot.is_some());
        slot.emit(MemEvent::Barrier { cycle: 1 }); // no sink: no effect
    }

    #[test]
    fn installed_slot_delivers_in_order() {
        let sink = Arc::new(Mutex::new(Collector::default()));
        let mut slot = ObserverSlot::default();
        slot.install(sink.clone());
        assert!(slot.is_some());
        slot.emit(MemEvent::Barrier { cycle: 1 });
        slot.emit(MemEvent::Crash { cycle: 2 });
        assert_eq!(
            sink.lock().unwrap().0,
            vec![MemEvent::Barrier { cycle: 1 }, MemEvent::Crash { cycle: 2 }]
        );
        slot.clear();
        slot.emit(MemEvent::Barrier { cycle: 3 });
        assert_eq!(sink.lock().unwrap().0.len(), 2);
    }

    #[test]
    fn region_id_displays() {
        assert_eq!(RegionId(7).to_string(), "region#7");
    }
}
