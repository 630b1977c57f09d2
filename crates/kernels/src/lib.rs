//! # lp-kernels — the paper's evaluation workloads
//!
//! The five scientific kernels of Table V (tiled matrix multiplication,
//! Cholesky factorization, 2-D convolution, Gaussian elimination, FFT),
//! each instrumented to run under any persistency scheme of Table IV
//! (`base`, Lazy Persistency, EagerRecompute, WAL) on the [`lp_sim`]
//! machine, with per-kernel crash-recovery code and host golden
//! references. A [`native`] module additionally runs every kernel on the
//! real host for the paper's Table VII real-machine comparison.
//!
//! Every kernel implements [`kernel::Kernel`]; the plan building, runs
//! and recovery session around it are written once. Start with
//! [`driver::run_kernel`] for one-call runs, [`driver::run`] for custom
//! parameters, or a kernel's `setup`/`plans`/`recover`/`verify` API for
//! crash experiments; see [`tmm`] for the fully-worked example that
//! mirrors the paper's Figures 8 and 9.
#![deny(missing_docs)]
pub mod cholesky;
pub mod common;
pub mod conv2d;
pub mod driver;
pub mod fft;
pub mod gauss;
pub mod kernel;
pub mod native;
pub mod tmm;
