//! # lp-crashmc — the crash-state model checker
//!
//! Proves a persistency scheme's recovery correct over *every* NVMM state
//! reachable from a crash, not just the handful a randomized campaign
//! happens to visit. For each workload the checker runs one snapshot
//! pass that executes the trace once and captures a COW snapshot — the
//! [`lp_sim::memsys::CrashCensus`] of maybe-durable lines plus a forked
//! NVMM base — at every selected crash point (each store, flush, fence,
//! and region commit), then forks one machine per reachable subset of
//! each census (bounded exhaustive up to `K` undetermined lines,
//! deterministic seeded sampling beyond). Repeat crash states are
//! deduplicated by content hash so recovery runs once per *distinct*
//! state. The scheme's real recovery then runs on each fork and the
//! durable output must come back bit-identical to a crash-free
//! reference — anything else is reported as silent corruption (recovery
//! "succeeded" on wrong data) or a stuck state (recovery panicked).
//!
//! Three layers:
//!
//! - [`mc`] — the engine: crash-point discovery, budget selection, census
//!   subset enumeration, fork/recover/verify classification.
//! - [`cases`] — the paper's five kernels × {LP, LP+parity, EagerRecompute, WAL}
//!   wired into the engine through [`lp_kernels::driver::prepare_kernel`].
//! - [`rigs`] — the mutation-rig registry: every deliberately broken
//!   discipline, each censused under its own fault class, for which the
//!   checker must find a corrupt-or-stuck crash state (unless the runtime
//!   masks the bug), proving the model has teeth. `lp-check` and
//!   `lp-lint` audit the same registry.
//!
//! See `DESIGN.md` ("Correctness tooling") for the ADR crash model and
//! the definition of "reachable state".
#![forbid(unsafe_code)]
#![deny(missing_docs)]
pub mod cases;
pub mod mc;
pub mod rigs;
