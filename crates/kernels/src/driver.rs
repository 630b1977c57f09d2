//! Uniform dispatch over the five simulated kernels, for the experiment
//! harness and cross-kernel figures (Figures 12 and 13).

use crate::cholesky::Cholesky;
use crate::common::KernelRun;
use crate::conv2d::Conv2d;
use crate::fft::Fft;
use crate::gauss::Gauss;
use crate::kernel::Kernel;
use crate::tmm::Tmm;
use lp_core::scheme::Scheme;
use lp_core::track::TrackedRange;
use lp_sim::addr::LineAddr;
use lp_sim::config::MachineConfig;
use lp_sim::machine::{Machine, Outcome, ThreadPlan};

/// Which simulated kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelId {
    /// Tiled matrix multiplication.
    Tmm,
    /// Cholesky factorization.
    Cholesky,
    /// 2-D convolution.
    Conv2d,
    /// Gaussian elimination.
    Gauss,
    /// Fast Fourier transform.
    Fft,
}

impl KernelId {
    /// All kernels in the paper's figure order.
    pub const ALL: [KernelId; 5] = [
        KernelId::Tmm,
        KernelId::Cholesky,
        KernelId::Conv2d,
        KernelId::Gauss,
        KernelId::Fft,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            KernelId::Tmm => "TMM",
            KernelId::Cholesky => "Cholesky",
            KernelId::Conv2d => "2D-conv",
            KernelId::Gauss => "Gauss",
            KernelId::Fft => "FFT",
        }
    }
}

impl std::fmt::Display for KernelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Problem scale for dispatched runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smallest meaningful inputs, sized so exhaustive crash-state model
    /// checking (one census snapshot per crash point) stays tractable.
    Micro,
    /// Tiny inputs for unit/integration tests (sub-second per run).
    Test,
    /// Bench-default inputs mirroring the paper's simulation windows
    /// (seconds per run).
    Bench,
    /// Paper-scale inputs (tens of seconds per run).
    Paper,
}

impl Scale {
    /// This scale's entry of a kernel's `[micro, test, bench, paper]`
    /// parameter constructors.
    pub fn pick<P>(self, [micro, test, bench, paper]: [fn() -> P; 4]) -> P {
        match self {
            Scale::Micro => micro(),
            Scale::Test => test(),
            Scale::Bench => bench(),
            Scale::Paper => paper(),
        }
    }
}

/// A kernel set up but not yet run, with everything an external tool (the
/// `lp-check` sanitizer) needs to drive and audit the run itself: the
/// configured machine, the scheduled plans, the tracked address ranges,
/// and a durable-output verifier.
pub struct PreparedKernel {
    /// The machine with the kernel's data already initialized.
    pub machine: Machine,
    /// One plan per logical core, ready for [`Machine::run`].
    pub plans: Vec<ThreadPlan<'static>>,
    /// Named persistent ranges (protected data + scheme structures).
    pub ranges: Vec<TrackedRange>,
    /// The scheme the plans were built for.
    pub scheme: Scheme,
    /// Checks the durable image against the host golden reference (call
    /// after the run completed and caches were drained). `Send + Sync` so
    /// prepared cases can be rebuilt and driven from worker threads.
    pub verify: Box<dyn Fn(&Machine) -> bool + Send + Sync>,
    /// Runs the scheme's real crash recovery on the machine (call after a
    /// crash, before `verify`); returns the recovery statistics.
    pub recover: Box<dyn Fn(&mut Machine) -> lp_core::recovery::RecoveryStats + Send + Sync>,
    /// Sorted, deduplicated lines a fault campaign may silently bit-flip:
    /// checksum-audited (or unconditionally rebuilt) protected data, so
    /// Lazy recovery provably detects or overwrites the corruption.
    pub flip_lines: Vec<LineAddr>,
    /// Sorted, deduplicated lines a fault campaign may poison: protected
    /// data every scheme's recovery quarantines and rebuilds from durable
    /// sources.
    pub poison_lines: Vec<LineAddr>,
}

impl std::fmt::Debug for PreparedKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedKernel")
            .field("scheme", &self.scheme)
            .field("ranges", &self.ranges.len())
            .finish_non_exhaustive()
    }
}

impl PreparedKernel {
    /// Run the plans to completion (or crash), snapshot the statistics
    /// *before* the end-of-run drain (the paper's in-window methodology),
    /// drain, and verify.
    pub fn run(mut self) -> KernelRun {
        let plans = std::mem::take(&mut self.plans);
        let outcome = self.machine.run(plans);
        let stats = self.machine.stats();
        self.machine.drain_caches();
        let verified = outcome == Outcome::Completed && (self.verify)(&self.machine);
        KernelRun {
            stats,
            outcome,
            verified,
        }
    }
}

/// Set up kernel `K` with `params` under `scheme` on a machine configured
/// by `cfg` (core count overridden by the kernel's thread count), without
/// running it.
///
/// # Panics
///
/// Panics if kernel setup fails (e.g. the configured NVMM is too small).
pub fn prepare<K: Kernel>(
    params: K::Params,
    cfg: &MachineConfig,
    scheme: Scheme,
) -> PreparedKernel {
    let mut machine = Machine::new(cfg.clone().with_cores(K::threads(&params)));
    let k = K::setup(&mut machine, params, scheme).expect("kernel setup");
    let k2 = k.clone();
    PreparedKernel {
        plans: crate::kernel::plans(&k),
        ranges: k.tracked_ranges(),
        flip_lines: k.flip_lines(),
        poison_lines: k.repairable_lines(),
        machine,
        scheme,
        verify: Box::new(move |m| k.verify(m)),
        recover: Box::new(move |m| crate::kernel::recover(&k2, m)),
    }
}

/// Build a machine, run kernel `K`'s window with `params` under `scheme`,
/// and verify against the golden reference (see [`PreparedKernel::run`]).
///
/// # Panics
///
/// Panics if kernel setup fails.
pub fn run<K: Kernel>(cfg: &MachineConfig, params: K::Params, scheme: Scheme) -> KernelRun {
    prepare::<K>(params, cfg, scheme).run()
}

/// Set up `kernel` under `scheme` at `scale` without running it, so the
/// caller can install an observer before driving the machine.
///
/// # Panics
///
/// Panics if kernel setup fails (e.g. the configured NVMM is too small).
pub fn prepare_kernel(
    kernel: KernelId,
    scale: Scale,
    cfg: &MachineConfig,
    scheme: Scheme,
) -> PreparedKernel {
    match kernel {
        KernelId::Tmm => prepare::<Tmm>(Tmm::params(scale), cfg, scheme),
        KernelId::Cholesky => prepare::<Cholesky>(Cholesky::params(scale), cfg, scheme),
        KernelId::Conv2d => prepare::<Conv2d>(Conv2d::params(scale), cfg, scheme),
        KernelId::Gauss => prepare::<Gauss>(Gauss::params(scale), cfg, scheme),
        KernelId::Fft => prepare::<Fft>(Fft::params(scale), cfg, scheme),
    }
}

/// Run `kernel` under `scheme` at `scale` on a machine configured by
/// `cfg` (core count is overridden by the kernel's thread parameter).
pub fn run_kernel(
    kernel: KernelId,
    scale: Scale,
    cfg: &MachineConfig,
    scheme: Scheme,
) -> KernelRun {
    prepare_kernel(kernel, scale, cfg, scheme).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_dispatches_and_verifies_at_test_scale() {
        let cfg = MachineConfig::default().with_nvmm_bytes(16 << 20);
        for kernel in KernelId::ALL {
            let r = run_kernel(kernel, Scale::Test, &cfg, Scheme::lazy_default());
            assert!(r.verified, "{kernel}");
        }
    }

    #[test]
    fn pick_maps_each_scale_to_its_own_constructor() {
        let p: [fn() -> u8; 4] = [|| 0, || 1, || 2, || 3];
        let scales = [Scale::Micro, Scale::Test, Scale::Bench, Scale::Paper];
        assert_eq!(scales.map(|s| s.pick(p)), [0, 1, 2, 3]);
    }

    #[test]
    fn names_match_figures() {
        let names: Vec<_> = KernelId::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["TMM", "Cholesky", "2D-conv", "Gauss", "FFT"]);
    }
}
