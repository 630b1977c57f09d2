//! The kernel × scheme cells, their seeded inputs and crash points.

use lp_core::checksum::ChecksumKind;
use lp_core::scheme::Scheme;
use lp_kernels::driver::{KernelId, PreparedKernel, Scale};
use lp_sim::config::MachineConfig;
use lp_sim::machine::Machine;
use lp_sim::rng::Rng64;

/// Every scheme the benchmark runs, with its metric-name key.
pub const SCHEMES: [(Scheme, &str); 5] = [
    (Scheme::Base, "base"),
    (Scheme::Lazy(ChecksumKind::Modular), "lp"),
    (Scheme::LazyParity(ChecksumKind::Crc32), "lp-par"),
    (Scheme::Eager, "ep"),
    (Scheme::Wal, "wal"),
];

/// The schemes that have a recovery (everything but base).
pub const RECOVERABLE: [(Scheme, &str); 4] = [SCHEMES[1], SCHEMES[2], SCHEMES[3], SCHEMES[4]];

/// Metric-name key of a scheme.
///
/// # Panics
///
/// Panics on a scheme the benchmark does not run.
pub fn scheme_key(scheme: Scheme) -> &'static str {
    SCHEMES
        .iter()
        .find(|(s, _)| *s == scheme)
        .map(|&(_, k)| k)
        .expect("scheme is one of SCHEMES")
}

/// Metric-name key of a kernel.
pub fn kernel_key(kernel: KernelId) -> &'static str {
    match kernel {
        KernelId::Tmm => "tmm",
        KernelId::Cholesky => "cholesky",
        KernelId::Conv2d => "conv2d",
        KernelId::Gauss => "gauss",
        KernelId::Fft => "fft",
    }
}

/// One kernel under one scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// The kernel.
    pub kernel: KernelId,
    /// The scheme.
    pub scheme: Scheme,
}

impl Cell {
    /// `<kernel>.<scheme>`, e.g. `gauss.lp-par`.
    pub fn id(&self) -> String {
        format!("{}.{}", kernel_key(self.kernel), scheme_key(self.scheme))
    }
}

/// Every kernel under each of `schemes`, kernel-major.
pub fn cells(schemes: &[(Scheme, &str)]) -> Vec<Cell> {
    KernelId::ALL
        .iter()
        .flat_map(|&kernel| {
            schemes
                .iter()
                .map(move |&(scheme, _)| Cell { kernel, scheme })
        })
        .collect()
}

/// The machine every kernel/recover cell runs on (cores are set by the
/// kernel's thread count).
pub fn machine_config() -> MachineConfig {
    MachineConfig::default().with_nvmm_bytes(64 << 20)
}

/// RNG stream tags, so each use of the workload seed draws independently.
const INPUT_STREAM: u64 = 1;
const CRASH_STREAM: u64 = 2;
const CRASHMC_STREAM: u64 = 3;

/// The input seed of `kernel` under workload seed `seed` (the same for
/// every scheme, so the schemes of one kernel compute the same result).
pub fn input_seed(seed: u64, kernel: KernelId) -> u64 {
    let k = KernelId::ALL
        .iter()
        .position(|&x| x == kernel)
        .expect("known kernel") as u64;
    Rng64::new_stream(seed, INPUT_STREAM << 8 | k).next_u64()
}

/// The band the crash points are drawn from, as a share of a cell's
/// memory ops. It is narrow so that the seed moves the recovery work
/// little: with crash points over [0.4, 0.8), the geometric mean of the
/// cells' simulated recovery cycles spread 0.07–0.09 over ten seeds.
pub const CRASH_BAND: (f64, f64) = (0.45, 0.55);

/// Where `kernel`'s recover cells crash, as a share of each cell's memory
/// ops: uniform in [`CRASH_BAND`], one draw per kernel so every scheme of
/// a kernel (LP and LP+par in particular) crashes at the same progress.
pub fn crash_fraction(seed: u64, kernel: KernelId) -> f64 {
    let k = KernelId::ALL
        .iter()
        .position(|&x| x == kernel)
        .expect("known kernel") as u64;
    let (from, to) = CRASH_BAND;
    Rng64::new_stream(seed, CRASH_STREAM << 8 | k).range_f64(from, to)
}

/// The sampling seed handed to the model checker.
pub fn crashmc_seed(seed: u64) -> u64 {
    Rng64::new_stream(seed, CRASHMC_STREAM << 8).next_u64()
}

/// Set up `cell` at `scale` with inputs drawn from `input_seed`, ready to
/// run: the same preparation as `lp_kernels::driver::prepare_kernel`, but
/// with the kernel's `Params::seed` replaced.
///
/// # Panics
///
/// Panics if the kernel does not fit the machine.
pub fn prepare(cell: Cell, scale: Scale, input_seed: u64) -> PreparedKernel {
    macro_rules! seeded {
        ($module:ident, $params:ident, $kernel:ident) => {{
            use lp_kernels::$module::{$kernel, $params};
            let mut params = match scale {
                Scale::Micro => $params::micro(),
                Scale::Test => $params::test_small(),
                Scale::Bench => $params::bench_default(),
                Scale::Paper => $params::paper_default(),
            };
            params.seed = input_seed;
            let mut machine = Machine::new(machine_config().with_cores(params.threads));
            let k = $kernel::setup(&mut machine, params, cell.scheme).expect("kernel setup");
            let (plans, ranges) = (k.plans(), k.tracked_ranges());
            let (flip_lines, poison_lines) = (k.flip_lines(), k.repairable_lines());
            let k2 = k.clone();
            PreparedKernel {
                machine,
                plans,
                ranges,
                scheme: cell.scheme,
                verify: Box::new(move |m| k.verify(m)),
                recover: Box::new(move |m| k2.recover(m)),
                flip_lines,
                poison_lines,
            }
        }};
    }
    match cell.kernel {
        KernelId::Tmm => seeded!(tmm, TmmParams, Tmm),
        KernelId::Cholesky => seeded!(cholesky, CholeskyParams, Cholesky),
        KernelId::Conv2d => seeded!(conv2d, Conv2dParams, Conv2d),
        KernelId::Gauss => seeded!(gauss, GaussParams, Gauss),
        KernelId::Fft => seeded!(fft, FftParams, Fft),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_per_kernel_and_crash_points_in_range() {
        for seed in 0..50 {
            for k in KernelId::ALL {
                let f = crash_fraction(seed, k);
                assert!((CRASH_BAND.0..CRASH_BAND.1).contains(&f), "{f}");
            }
        }
        assert_ne!(input_seed(1, KernelId::Tmm), input_seed(2, KernelId::Tmm));
        assert_ne!(input_seed(1, KernelId::Tmm), input_seed(1, KernelId::Gauss));
        assert_ne!(
            crash_fraction(1, KernelId::Gauss),
            crash_fraction(2, KernelId::Gauss)
        );
    }

    #[test]
    fn cell_ids_are_metric_names() {
        let ids: Vec<_> = cells(&SCHEMES).iter().map(Cell::id).collect();
        assert_eq!(ids.len(), 25);
        assert_eq!(ids[0], "tmm.base");
        assert_eq!(ids[24], "fft.wal");
        assert_eq!(cells(&RECOVERABLE).len(), 20);
    }
}
