//! Differential invariance suite for the simulator hot path.
//!
//! The timing model is a semantic contract: performance work on the
//! memory system (paged NVMM overlays, flattened cache lookup, batched
//! dispatch) must be *pure wall-clock* optimization. This suite pins, for
//! the full kernel × scheme Micro matrix, everything the timing model and
//! the durable image produce:
//!
//! - `sim_cycles` (max core cycle count at completion),
//! - `mem_ops` (the memory system's global operation counter),
//! - per-class op counts (loads / stores / flushes / fences),
//! - total NVMM line writes, and
//! - an FNV-1a hash of the final durable NVMM image (post-drain).
//!
//! The golden file was captured on the pre-overhaul memory system; any
//! drift in any cell is a timing-model change and fails the suite.
//! Regenerate (only when the timing model changes *on purpose*) with:
//!
//! ```text
//! LP_INVARIANCE_BLESS=1 cargo test -p lp-kernels --test micro_invariance
//! ```
//!
//! The matrix runs the Table II machine only. A second golden,
//! `sensitivity_invariance.txt`, runs a smaller matrix on each machine
//! the paper's sensitivity studies use (NVMM latency, L2 size, the
//! cleaner interval) plus two tiny-cache machines whose evictions fire
//! at Micro scale. It also pins the Table VI hazard counters (FUI, FUR,
//! FUW, MSHR-full and fence-stall cycles), which the cycle count alone
//! can hide. The same switch blesses both.

use lp_core::checksum::ChecksumKind;
use lp_core::scheme::Scheme;
use lp_kernels::driver::{prepare_kernel, KernelId, Scale};
use lp_sim::addr::Addr;
use lp_sim::cleaner::CleanerConfig;
use lp_sim::config::MachineConfig;
use lp_sim::machine::{Machine, Outcome};
use lp_sim::stats::SimStats;

/// The scheme column of the matrix (kept in sync with the experiment
/// harness's scheme sweep; Adler-32 included so the checksum fold order
/// of a non-commutative code is pinned too).
fn schemes() -> Vec<Scheme> {
    vec![
        Scheme::Base,
        Scheme::Lazy(ChecksumKind::Modular),
        Scheme::Lazy(ChecksumKind::Adler32),
        Scheme::LazyParity(ChecksumKind::Crc32),
        Scheme::LazyEagerCk(ChecksumKind::Modular),
        Scheme::Eager,
        Scheme::Wal,
    ]
}

/// FNV-1a over the heap-used prefix of the durable NVMM image.
fn image_hash(machine: &Machine) -> u64 {
    let used = machine.heap_used() as usize;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut buf = vec![0u8; 4096];
    let mut off = 0usize;
    while off < used {
        let n = buf.len().min(used - off);
        machine
            .mem()
            .nvmm()
            .peek_bytes(Addr(off as u64), &mut buf[..n]);
        for &b in &buf[..n] {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        off += n;
    }
    h
}

/// Run one cell on `cfg` to completion, snapshot the statistics and the
/// op count *before* the drain (like the experiment harness), drain, and
/// verify. Returns the drained machine, the statistics and the op count.
fn run(kernel: KernelId, scheme: Scheme, cfg: &MachineConfig) -> (Machine, SimStats, u64) {
    let mut prep = prepare_kernel(kernel, Scale::Micro, cfg, scheme);
    let plans = std::mem::take(&mut prep.plans);
    let outcome = prep.machine.run(plans);
    assert_eq!(outcome, Outcome::Completed, "{kernel}/{scheme}");
    let stats = prep.machine.stats();
    let mem_ops = prep.machine.mem().mem_ops();
    prep.machine.drain_caches();
    assert!((prep.verify)(&prep.machine), "{kernel}/{scheme} verify");
    (prep.machine, stats, mem_ops)
}

/// One matrix cell, formatted as a golden line.
fn run_cell(kernel: KernelId, scheme: Scheme) -> String {
    let cfg = MachineConfig::default().with_nvmm_bytes(8 << 20);
    let (machine, stats, mem_ops) = run(kernel, scheme, &cfg);
    let t = stats.core_totals();
    format!(
        "{}/{} cycles={} mem_ops={} loads={} stores={} flushes={} fences={} nvmm_writes={} image={:016x}",
        kernel.name(),
        scheme,
        stats.exec_cycles(),
        mem_ops,
        t.loads,
        t.stores,
        t.flushes,
        t.fences,
        stats.nvmm_writes(),
        image_hash(&machine),
    )
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name)
}

/// Compare `lines` with the golden `name` (or rewrite it under
/// `LP_INVARIANCE_BLESS`), panicking with every differing line.
fn check_golden(name: &str, lines: &[String]) {
    let actual = format!("{}\n", lines.join("\n"));
    let path = golden_path(name);
    if std::env::var_os("LP_INVARIANCE_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir goldens");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); bless with LP_INVARIANCE_BLESS=1",
            path.display()
        )
    });
    if expected != actual {
        let diff: Vec<String> = expected
            .lines()
            .zip(actual.lines())
            .filter(|(e, a)| e != a)
            .map(|(e, a)| format!("- {e}\n+ {a}"))
            .collect();
        panic!(
            "timing-model drift in {} cell(s) of {name} — the hot-path overhaul must be \
             cycle-invariant (bless only for intentional timing changes):\n{}",
            diff.len(),
            diff.join("\n"),
        );
    }
}

#[test]
fn micro_matrix_timing_and_image_pinned() {
    let mut lines = Vec::new();
    for kernel in KernelId::ALL {
        for scheme in schemes() {
            lines.push(run_cell(kernel, scheme));
        }
    }
    check_golden("micro_invariance.txt", &lines);
}

/// The sweep interval of the cleaner configuration: shorter than the
/// shortest Micro run (about 1.2K cycles), so every run sweeps.
const CLEANER_INTERVAL: u64 = 500;

/// The machines the sensitivity golden runs: Table II, then each value
/// the paper's sensitivity studies vary, then two tiny-cache machines.
/// With a 2 KB L1 and an 8 KB L2, L1 evictions fire at Micro scale but
/// every working set still fits the L2; shrinking the L2 to 2 KB also
/// writes dirty L2 victims to NVMM.
fn sensitivity_configs() -> Vec<(&'static str, MachineConfig)> {
    let table_ii = MachineConfig::default().with_nvmm_bytes(8 << 20);
    vec![
        ("table-ii", table_ii.clone()),
        // Fig. 14a: NVMM read/write latency.
        (
            "nvmm-60/150ns",
            table_ii.clone().with_nvmm_latency_ns(60, 150),
        ),
        (
            "nvmm-100/200ns",
            table_ii.clone().with_nvmm_latency_ns(100, 200),
        ),
        // Fig. 15a: L2 size.
        ("l2-256K", table_ii.clone().with_l2_bytes(256 << 10)),
        ("l2-1M", table_ii.clone().with_l2_bytes(1 << 20)),
        (
            "l1-2K-l2-8K",
            table_ii
                .clone()
                .with_l1_bytes(2 << 10)
                .with_l2_bytes(8 << 10),
        ),
        (
            "l1-2K-l2-2K",
            table_ii
                .clone()
                .with_l1_bytes(2 << 10)
                .with_l2_bytes(2 << 10),
        ),
        // Fig. 11: the periodic cleaner.
        (
            "cleaner-500",
            table_ii.with_cleaner(CleanerConfig::every_cycles(CLEANER_INTERVAL)),
        ),
    ]
}

#[test]
fn sensitivity_configs_pinned() {
    let schemes = [
        Scheme::Base,
        Scheme::Lazy(ChecksumKind::Modular),
        Scheme::Eager,
        Scheme::Wal,
    ];
    let mut lines = Vec::new();
    for (label, cfg) in sensitivity_configs() {
        for kernel in KernelId::ALL {
            for scheme in schemes {
                let (machine, stats, mem_ops) = run(kernel, scheme, &cfg);
                if cfg.cleaner.is_some() {
                    assert!(
                        machine.mem().cleaner_sweeps() > 0,
                        "{label} {kernel}/{scheme}: the cleaner never swept"
                    );
                }
                let t = stats.core_totals();
                lines.push(format!(
                    "{label} {}/{} cycles={} mem_ops={} nvmm_writes={} image={:016x} \
                     fui={} fur={} fuw={} mshr_full={} fence_stall={}",
                    kernel.name(),
                    scheme,
                    stats.exec_cycles(),
                    mem_ops,
                    stats.nvmm_writes(),
                    image_hash(&machine),
                    t.fui_events,
                    t.fur_events,
                    t.fuw_events,
                    t.mshr_full_events,
                    t.fence_stall_cycles,
                ));
            }
        }
    }
    check_golden("sensitivity_invariance.txt", &lines);
}
