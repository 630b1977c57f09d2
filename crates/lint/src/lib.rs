//! `lp-lint`: static persist-order analyzer over the kernel persistency
//! API.
//!
//! The dynamic stack (lp-check, lp-crashmc) decides persistency bugs by
//! *running* a workload against the simulated memory hierarchy. This
//! crate decides the statically-decidable subset from *source*: it lexes
//! the kernel and core persistency code (no external parser — the
//! toolchain here is intentionally dependency-free), lowers each function
//! to a control-flow graph ([`mod@cfg`]), and solves a must/may dataflow
//! fixpoint over flush/fence/fold obligations — widening at loop heads,
//! joining at branch merges, and flowing obligations through helper calls
//! via per-function summaries.
//!
//! Safety rules S1–S7 are static twins of dynamic checker rules
//! ([`SRule::dynamic_twin`] names the lp-check rule each one decides);
//! efficiency rules W1–W4 twin the simulator's `flushes`/`fences`
//! counters, and `tests/wrule_twins.rs` pins the counter drop each W fix
//! buys on a real machine:
//!
//! | rule | property | dynamic twin |
//! |------|----------|--------------|
//! | S1 | every store on a path to a durable-marker publish is flushed and fenced first | R3 |
//! | S2 | no checksum-table publish precedes the fold covering its data | R2 |
//! | S3 | WAL undo entries are appended and fenced before the first in-place overwrite | R4 |
//! | S4 | recovery progress markers stored only after repair stores are flushed and fenced | R7 |
//! | S5 | every `region_begin` is matched by `region_end`/abort on all paths | R1 |
//! | S6 | every persisted LP data line is folded into a checksum before region commit | R2 |
//! | S7 | the parity line is published only after every protected store of its region | R8 |
//! | W1 | no line is flushed twice without an intervening store on any path | `flushes` counter |
//! | W2 | no fence is unreachable by any store or flush | `fences` counter |
//! | W3 | no element flush of a line already covered by a range flush | `flushes` counter |
//! | W4 | per-element loop flushes / non-publishing per-iteration barriers are coalesced | `flushes` counter |
//!
//! Findings carry `file:line` spans and are emitted as a structured
//! [`report::LintReport`] (pretty text or JSON), mirroring lp-check's
//! `ViolationReport`. The [`differential`] module cross-validates the
//! rules against the mutation-rig registry (`lp_crashmc::rigs`, linted
//! in place) and the W-rule fixtures.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analysis;
pub mod cfg;
pub mod config;
pub mod differential;
pub mod lexer;
pub mod parser;
pub mod report;

use std::path::{Path, PathBuf};

pub use analysis::analyze_source;
pub use config::LintConfig;
pub use report::{LintFinding, LintReport, SRule};

/// The default lint surface, relative to the workspace root: every
/// kernel plus the core persistency modules the kernels call into.
pub fn default_targets(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let kernels = root.join("crates/kernels/src");
    let mut entries: Vec<_> = std::fs::read_dir(&kernels)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    entries.sort();
    out.extend(entries);
    for core in ["wal.rs", "ep.rs", "recovery.rs", "parity.rs", "table.rs"] {
        let p = root.join("crates/core/src").join(core);
        if p.is_file() {
            out.push(p);
        }
    }
    Ok(out)
}

/// Lint a set of files, labelling findings with paths relative to
/// `root` when possible. Runs in two passes: every file is parsed and
/// summarized first, so helper-call obligations resolve across files
/// (a kernel's sink types live in `common.rs`, their call sites in the
/// kernel files).
pub fn lint_paths(paths: &[PathBuf], root: &Path, cfg: &LintConfig) -> std::io::Result<LintReport> {
    let mut parsed = Vec::new();
    let mut summaries = analysis::Summaries::new();
    for path in paths {
        let src = std::fs::read_to_string(path)?;
        let label = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .into_owned();
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let file = parser::parse_file(&src, &stem, cfg);
        summaries.extend(analysis::summarize_file(&file, cfg));
        parsed.push((file, label));
    }
    let mut total = LintReport::default();
    for (file, label) in &parsed {
        total.merge(analysis::analyze_parsed(file, label, cfg, &summaries));
    }
    total.sort();
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    #[test]
    fn default_targets_cover_kernels_and_core() {
        let targets = default_targets(&repo_root()).unwrap();
        let names: Vec<String> = targets
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert!(names.contains(&"wal.rs".to_string()), "{names:?}");
        assert!(names.contains(&"ep.rs".to_string()), "{names:?}");
        assert!(names.contains(&"tmm.rs".to_string()), "{names:?}");
        // The recovery ladder: the session and sinks, rung 1's
        // reconstruct-and-write-back, and the generic kernel ladder.
        assert!(names.contains(&"recovery.rs".to_string()), "{names:?}");
        assert!(names.contains(&"parity.rs".to_string()), "{names:?}");
        assert!(names.contains(&"kernel.rs".to_string()), "{names:?}");
        assert!(targets.len() >= 8, "{names:?}");
    }

    #[test]
    fn clean_tree_lints_to_zero_findings() {
        let root = repo_root();
        let targets = default_targets(&root).unwrap();
        let report = lint_paths(&targets, &root, &LintConfig::default()).unwrap();
        assert!(report.is_clean(), "{report}");
    }
}
