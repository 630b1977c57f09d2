//! # lp-sim — a deterministic NVMM cache-hierarchy timing simulator
//!
//! This crate is the hardware substrate for the reproduction of
//! *"Lazy Persistency: A High-Performing and Write-Efficient Software
//! Persistency Technique"* (Alshboul, Tuck, Solihin — ISCA 2018). The paper
//! evaluates on gem5; this crate provides the equivalent mechanisms in a
//! deterministic, trace-driven timing model:
//!
//! * per-core private L1 data caches and a shared, inclusive L2 with a
//!   MESI-style directory ([`cache`], [`memsys`]);
//! * a memory controller with bounded read/write queues whose write queue
//!   is in the ADR non-volatile domain ([`mc`]);
//! * byte-addressable NVMM with configurable read/write latencies and a
//!   durable image that is exactly what survives a crash ([`mem`]);
//! * the persistency instructions the paper's Eager baselines need —
//!   `clflushopt`, `clwb`, `sfence` — plus timed loads/stores and a compute
//!   model with structural-hazard counters ([`core`]);
//! * crash injection, recovery-mode execution, statistics, and the
//!   paper's proposed periodic hardware cleaner ([`machine`], [`stats`],
//!   [`cleaner`]).
//!
//! # Quick example
//!
//! ```
//! use lp_sim::prelude::*;
//!
//! // A 2-core machine with Table II defaults and a 1 MiB NVMM image.
//! let mut m = Machine::new(MachineConfig::default().with_cores(2).with_nvmm_bytes(1 << 20));
//! let data = m.alloc::<f64>(1024).unwrap();
//!
//! // Two logical threads each fill half the array.
//! let mut plans = m.plans();
//! for (t, plan) in plans.iter_mut().enumerate() {
//!     plan.region(move |ctx| {
//!         for i in (t * 512)..((t + 1) * 512) {
//!             ctx.store(data, i, i as f64);
//!             ctx.compute(2);
//!         }
//!     });
//! }
//! assert_eq!(m.run(plans), Outcome::Completed);
//!
//! // Dirty lines reach NVMM through natural evictions; drain the rest and
//! // inspect the durable image.
//! m.drain_caches();
//! assert_eq!(m.peek(data, 1000), 1000.0);
//! println!("{}", m.stats().summary());
//! ```

#![deny(missing_docs)]

pub mod addr;
pub mod cache;
pub mod cleaner;
pub mod config;
pub mod core;
pub mod debug;
pub mod fault;
pub mod json;
pub mod machine;
pub mod mc;
pub mod mem;
pub mod memsys;
pub mod observe;
pub mod par;
pub mod rng;
pub mod stats;

/// Convenient re-exports of the types most users need.
pub mod prelude {
    pub use crate::addr::{Addr, LineAddr, LINE_BYTES};
    pub use crate::cleaner::CleanerConfig;
    pub use crate::config::MachineConfig;
    pub use crate::core::CoreCtx;
    pub use crate::fault::FaultConfig;
    pub use crate::machine::{Machine, Outcome, ThreadPlan, WorkItem};
    pub use crate::mem::{PArray, Scalar};
    pub use crate::memsys::CrashTrigger;
    pub use crate::observe::{
        EventSink, MemEvent, RegionCounts, RegionId, RegionTally, SharedSink,
    };
    pub use crate::stats::{SimStats, WriteCause};
}
