//! `lp-lint` CLI: statically lint persist-order discipline.
//!
//! ```text
//! lp-lint --all                 # lint the default surface (kernels + core)
//! lp-lint --all --json          # same, machine-readable
//! lp-lint --differential        # cross-validate against the mutation rigs
//! lp-lint path/to/file.rs ...   # lint specific files
//! ```
//!
//! Exit codes: 0 clean / check pass, 1 findings / check failure, 2 usage
//! or I/O error.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

use lp_lint::differential::run_differential;
use lp_lint::{default_targets, lint_paths};

struct Options {
    all: bool,
    json: bool,
    differential: bool,
    root: PathBuf,
    files: Vec<PathBuf>,
}

fn usage() -> &'static str {
    "usage: lp-lint [--all] [--json] [--differential] [--root DIR] [FILES...]"
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        all: false,
        json: false,
        differential: false,
        root: PathBuf::from("."),
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--all" => opts.all = true,
            "--json" => opts.json = true,
            "--differential" => opts.differential = true,
            "--root" => {
                let dir = it.next().ok_or("--root requires a directory")?;
                opts.root = PathBuf::from(dir);
            }
            "--help" | "-h" => return Err(usage().to_string()),
            f if f.starts_with('-') => return Err(format!("unknown flag {f}\n{}", usage())),
            f => opts.files.push(PathBuf::from(f)),
        }
    }
    if !opts.differential && !opts.all && opts.files.is_empty() {
        return Err(format!("nothing to lint\n{}", usage()));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if opts.differential {
        let out = run_differential();
        print!("{out}");
        return if out.pass() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let mut targets = opts.files.clone();
    if opts.all {
        match default_targets(&opts.root) {
            Ok(t) => targets.extend(t),
            Err(e) => {
                eprintln!(
                    "lp-lint: cannot enumerate targets under {}: {e}",
                    opts.root.display()
                );
                return ExitCode::from(2);
            }
        }
    }
    match lint_paths(&targets, &opts.root) {
        Ok(report) => {
            if opts.json {
                println!("{}", report.to_json());
            } else {
                print!("{report}");
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("lp-lint: {e}");
            ExitCode::from(2)
        }
    }
}
