//! # lp-check — a persistency-discipline sanitizer
//!
//! `lp-check` replays the simulator's memory-event stream (see
//! `lp_sim::observe`) against the contract of the persistency scheme in
//! force and reports violations. It enforces eight rules:
//!
//! * **R1** — store to protected persistent memory outside any
//!   begin/commit region.
//! * **R2** — Lazy Persistency store not folded into the region's running
//!   checksum (the persisted table entry disagrees with a checksum
//!   recomputed from the observed stores).
//! * **R3** — EagerRecompute durable-marker store not preceded by flushes
//!   plus an `sfence` covering every dirty line of the region.
//! * **R4** — WAL in-place store whose undo-log entry is not yet durably
//!   ordered (log-before-data violated).
//! * **R5** — overlapping protected write sets between concurrently
//!   scheduled regions on different cores.
//! * **R6** — a committed Lazy region's line rewritten by a later region,
//!   before the earlier checksum reached NVMM, without a fresh checksum
//!   entry.
//! * **R7** — post-crash recovery stored a progress value (marker, WAL
//!   header, or checksum-table entry) while protected recovery stores it
//!   vouches for still lacked a covering flush + `sfence` — a nested crash
//!   in that window would trust the promise and skip the repair.
//! * **R8** — parity published ahead of the data it summarizes: a
//!   parity-arena line stored before the region's protected stores were
//!   all issued, or persisted by recovery while a repaired line it
//!   vouches for was still unfenced.
//!
//! The checker is an observer: it cannot perturb the timing or functional
//! model, and a machine without one installed pays nothing. Because the
//! simulator models ADR (flushes are durable once accepted), some broken
//! disciplines still yield correct simulated output — `lp-check` exists to
//! flag exactly those latent bugs before real hardware does.
//!
//! Run the whole suite (clean kernels × schemes + the mutation rigs of
//! [`lp_crashmc::rigs`], each of which must trip exactly its declared
//! rule) with the `lp-check` binary, or audit one workload
//! programmatically via [`check_kernel`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod checker;
pub mod mutations;
pub mod report;

use std::sync::{Arc, Mutex};

use lp_core::scheme::Scheme;
use lp_kernels::driver::{prepare_kernel, KernelId, Scale};
use lp_sim::config::MachineConfig;
use lp_sim::machine::Outcome;

pub use crate::checker::Checker;
pub use crate::report::{Rule, Violation, ViolationReport};

/// Outcome of auditing one kernel run.
#[derive(Debug)]
pub struct CheckedRun {
    /// The checker's verdict.
    pub report: ViolationReport,
    /// How the simulated run ended.
    pub outcome: Outcome,
    /// Whether the durable image matched the host golden reference.
    pub verified: bool,
}

/// Run `kernel` under `scheme` with the sanitizer installed and the caches
/// drained afterwards (so every pending line, checksum included, reaches
/// the durable image before verification).
pub fn check_kernel(
    kernel: KernelId,
    scale: Scale,
    cfg: &MachineConfig,
    scheme: Scheme,
) -> CheckedRun {
    let mut prepared = prepare_kernel(kernel, scale, cfg, scheme);
    let label = format!("{kernel} under {scheme}");
    let checker = Arc::new(Mutex::new(Checker::new(
        scheme,
        prepared.ranges.clone(),
        label,
    )));
    prepared.machine.set_observer(checker.clone());
    let outcome = prepared.machine.run(prepared.plans);
    prepared.machine.drain_caches();
    prepared.machine.clear_observer();
    let verified = outcome == Outcome::Completed && (prepared.verify)(&prepared.machine);
    let report = checker.lock().unwrap().report();
    CheckedRun {
        report,
        outcome,
        verified,
    }
}

/// The scheme matrix the clean-run suite audits (one representative
/// checksum kind for each Lazy variant).
pub fn default_schemes() -> [Scheme; 6] {
    use lp_core::checksum::ChecksumKind;
    [
        Scheme::Base,
        Scheme::Lazy(ChecksumKind::Modular),
        Scheme::lazy_parity_default(),
        Scheme::LazyEagerCk(ChecksumKind::Modular),
        Scheme::Eager,
        Scheme::Wal,
    ]
}

/// A machine configuration suitable for test-scale audited runs.
pub fn default_config() -> MachineConfig {
    MachineConfig::default().with_nvmm_bytes(16 << 20)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tmm_is_clean_and_verified_under_every_scheme() {
        let cfg = default_config();
        for scheme in default_schemes() {
            let run = check_kernel(KernelId::Tmm, Scale::Test, &cfg, scheme);
            assert!(run.report.is_clean(), "{}", run.report);
            assert!(run.verified, "TMM under {scheme} failed verification");
            assert!(run.report.events_seen > 0);
        }
    }
}
