//! # lp-bench — the experiment harness
//!
//! One binary per table and figure of the paper's evaluation (Section
//! V–VI); see `DESIGN.md`'s experiment index and `EXPERIMENTS.md` for the
//! paper-vs-measured record. Every binary accepts `--quick` (scaled-down
//! inputs for smoke runs) and prints an aligned table whose rows mirror
//! the paper's artifact.
//!
//! This library holds the shared plumbing: argument parsing, table
//! rendering, and normalization formatting.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use lp_sim::config::MachineConfig;

/// Command-line options shared by all experiment binaries.
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    /// Use scaled-down inputs (`--quick`).
    pub quick: bool,
    /// Override *simulated* worker-thread count (`--threads N`) — the
    /// number of logical cores the kernel itself is scheduled across.
    pub threads: Option<usize>,
    /// Host worker threads for fanning the experiment matrix
    /// (`--jobs N`, make-style). Defaults to the machine's available
    /// parallelism; results are identical at any job count.
    pub jobs: Option<usize>,
}

impl BenchArgs {
    /// Parse from `std::env::args()`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on unknown flags.
    pub fn parse() -> Self {
        let mut out = BenchArgs::default();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => out.quick = true,
                "--threads" => {
                    let v = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .expect("--threads needs a number");
                    out.threads = Some(v);
                }
                "--jobs" => {
                    let v = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&v: &usize| v >= 1)
                        .expect("--jobs needs a number >= 1");
                    out.jobs = Some(v);
                }
                "--help" | "-h" => {
                    println!("usage: <bin> [--quick] [--threads N] [--jobs N]");
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}; try --help"),
            }
        }
        out
    }

    /// The machine configuration experiments start from (Table II plus a
    /// roomy NVMM image).
    pub fn base_config(&self) -> MachineConfig {
        MachineConfig::default().with_nvmm_bytes(512 << 20)
    }

    /// Host worker threads to fan the experiment matrix across.
    pub fn host_jobs(&self) -> usize {
        self.jobs.unwrap_or_else(lp_sim::par::available_threads)
    }
}

/// Run every cell of an experiment matrix across `jobs` host threads,
/// returning results in cell order.
///
/// Each cell runs a full, independent simulation (the simulator is
/// deterministic and machines are `Send`), so the output is identical to
/// a serial walk of the matrix — only the wall-clock changes. Binaries
/// collect the cells first, fan out here, then render their tables from
/// the ordered results. Workers accumulate locally and merge once
/// ([`lp_sim::par::par_map`]), so big result structs never
/// contend mid-run.
pub fn run_cells<T, R, F>(jobs: usize, cells: &[T], run: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    lp_sim::par::par_map(jobs, cells, |_, cell| run(cell))
}

/// Format `x / base` as a normalized factor, e.g. `1.002x`.
pub fn norm(x: u64, base: u64) -> String {
    if base == 0 {
        "n/a".into()
    } else {
        format!("{:.3}x", x as f64 / base as f64)
    }
}

/// Format `x / base - 1` as a percentage overhead, e.g. `+0.2%`.
pub fn overhead_pct(x: u64, base: u64) -> String {
    if base == 0 {
        "n/a".into()
    } else {
        format!("{:+.1}%", (x as f64 / base as f64 - 1.0) * 100.0)
    }
}

/// Render an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    println!("{}", fmt_row(&header_cells));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Render a horizontal ASCII bar chart (the paper's figures are bar
/// charts; this keeps the binaries' output visually comparable).
///
/// Bars scale to the maximum value; each row shows the label, the bar,
/// and the value formatted with `fmt`.
pub fn print_bars(title: &str, rows: &[(String, f64)], fmt: impl Fn(f64) -> String) {
    println!("\n-- {title} --");
    let width = 46usize;
    let max = rows.iter().map(|(_, v)| *v).fold(f64::MIN, f64::max);
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    for (label, v) in rows {
        let filled = if max > 0.0 {
            ((v / max) * width as f64).round().max(0.0) as usize
        } else {
            0
        };
        println!(
            "{:<label_w$}  {}{}  {}",
            label,
            "█".repeat(filled.min(width)),
            " ".repeat(width - filled.min(width)),
            fmt(*v),
        );
    }
}

/// Geometric mean of factors.
pub fn gmean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_formats() {
        assert_eq!(norm(1002, 1000), "1.002x");
        assert_eq!(norm(5, 0), "n/a");
    }

    #[test]
    fn overhead_formats() {
        assert_eq!(overhead_pct(1120, 1000), "+12.0%");
        assert_eq!(overhead_pct(990, 1000), "-1.0%");
    }

    #[test]
    fn bars_do_not_panic_on_edge_cases() {
        print_bars("empty", &[], |v| format!("{v}"));
        print_bars("zeros", &[("a".into(), 0.0), ("b".into(), 0.0)], |v| {
            format!("{v:.1}")
        });
        print_bars(
            "normal",
            &[("base".into(), 1.0), ("wal".into(), 3.1)],
            |v| format!("{v:.2}x"),
        );
    }

    #[test]
    fn gmean_of_identity() {
        assert!((gmean(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((gmean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(gmean(&[]), 1.0);
    }
}
