//! Table VII: Lazy Persistency execution-time overhead on a *real*
//! machine (the host), normalized to the non-persistent base case.
//!
//! LP needs no hardware support, so it runs on any stock machine; only
//! the checksum-computation overhead is measurable (this host is
//! DRAM-based, like the paper's Opteron testbed).
//!
//! Paper reference: TMM 0.8%, Cholesky 1.1%, 2D-conv 0.9%, Gauss 2.1%,
//! FFT 1.1%, gmean 1.1%.
//!
//! Run: `cargo run --release -p lp-bench --bin table7 [--quick] [--threads N]`.

use lp_bench::{gmean, print_table, BenchArgs};
use lp_kernels::driver::KernelId;
use lp_kernels::native::run_native;

fn main() {
    let args = BenchArgs::parse();
    let threads = args
        .threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get().min(8)));
    let reps = if args.quick { 2 } else { 3 };

    let mut rows = Vec::new();
    let mut factors = Vec::new();
    for kernel in KernelId::ALL {
        let n = match (kernel, args.quick) {
            (KernelId::Fft, false) => 1 << 20,
            (KernelId::Fft, true) => 1 << 16,
            (KernelId::Gauss, false) => 1024,
            (KernelId::Cholesky, false) => 768,
            (KernelId::Conv2d, false) => 2048,
            (KernelId::Tmm, false) => 512,
            (_, true) => 192,
        };
        eprintln!(
            "table7: {} (n={n}, {threads} threads, {reps} reps)...",
            kernel.name()
        );
        let r = run_native(kernel, n, threads, reps);
        assert!(r.outputs_match, "{}: variants disagree", kernel.name());
        factors.push(1.0 + r.overhead().max(0.0));
        rows.push(vec![
            kernel.name().to_string(),
            format!("{:+.1}%", r.overhead() * 100.0),
            format!("{:.1?}", r.base),
            format!("{:.1?}", r.lp),
        ]);
    }
    rows.push(vec![
        "gmean".into(),
        format!("{:+.1}%", (gmean(&factors) - 1.0) * 100.0),
        "-".into(),
        "-".into(),
    ]);
    print_table(
        "Table VII — LP execution-time overhead on the real host",
        &["Benchmark", "LP overhead", "base time", "LP time"],
        &rows,
    );
    println!(
        "\npaper: TMM 0.8% | Cholesky 1.1% | 2D-conv 0.9% | Gauss 2.1% | FFT 1.1% | gmean 1.1%"
    );
}
