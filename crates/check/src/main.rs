//! `lp-check` CLI: audit every shipped kernel under every scheme with the
//! persistency sanitizer, then audit the mutation-rig registry, which
//! proves the rules fire when the discipline is broken.
//!
//! ```text
//! lp-check               # clean runs + mutation suite (test scale)
//! lp-check --kernels     # clean kernel × scheme audits only
//! lp-check --mutations   # mutation suite only
//! lp-check --verbose     # also print per-run event counts
//! ```
//!
//! Exits non-zero if any clean run reports a violation (or fails output
//! verification), or if any rig's audit flags other than exactly its
//! declared rule.

use lp_check::{check_kernel, default_config, default_schemes, mutations};
use lp_kernels::driver::{KernelId, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let verbose = args.iter().any(|a| a == "--verbose" || a == "-v");
    let only_kernels = args.iter().any(|a| a == "--kernels");
    let only_mutations = args.iter().any(|a| a == "--mutations");
    if let Some(bad) = args
        .iter()
        .find(|a| !matches!(a.as_str(), "--verbose" | "-v" | "--kernels" | "--mutations"))
    {
        eprintln!("lp-check: unknown argument `{bad}`");
        eprintln!("usage: lp-check [--kernels] [--mutations] [--verbose]");
        std::process::exit(2);
    }
    let run_kernels = only_kernels || !only_mutations;
    let run_mutations = only_mutations || !only_kernels;
    let mut failures = 0usize;

    if run_kernels {
        println!("== clean runs: kernels x schemes (test scale) ==");
        let cfg = default_config();
        for kernel in KernelId::ALL {
            for scheme in default_schemes() {
                let run = check_kernel(kernel, Scale::Test, &cfg, scheme);
                let clean = run.report.is_clean();
                let ok = clean && run.verified;
                if !ok {
                    failures += 1;
                }
                let status = match (clean, run.verified) {
                    (true, true) => "ok".to_string(),
                    (false, _) => format!("{} violation(s)", run.report.violations.len()),
                    (true, false) => "output verification FAILED".to_string(),
                };
                if verbose || !ok {
                    println!(
                        "  {:8} x {:22} {} ({} events)",
                        kernel.name(),
                        scheme.name(),
                        status,
                        run.report.events_seen
                    );
                } else {
                    println!("  {:8} x {:22} {}", kernel.name(), scheme.name(), status);
                }
                if !clean {
                    println!("{}", run.report);
                }
            }
        }
    }

    if run_mutations {
        println!("== mutation rigs: each must trip exactly its declared rule ==");
        for outcome in mutations::run_all() {
            let holds = outcome.holds();
            if !holds {
                failures += 1;
            }
            let (expects, verdict) = match outcome.expected {
                Some(rule) => (rule.id(), if holds { "flagged" } else { "MISSED" }),
                None => ("none", if holds { "clean" } else { "FALSE POSITIVE" }),
            };
            println!("  {:30} expects {expects} ... {verdict}", outcome.name);
            if verbose || !holds {
                for v in &outcome.report.violations {
                    println!("    {v}");
                }
            }
        }
    }

    if failures > 0 {
        eprintln!("lp-check: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("lp-check: all checks passed");
}
