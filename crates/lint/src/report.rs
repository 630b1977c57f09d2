//! Structured lint findings, mirroring lp-check's `ViolationReport`:
//! a typed rule enum, per-finding file:line spans, and both pretty-text
//! and JSON renderings (hand-rolled — the workspace has no serde).

use std::fmt;

/// The static persist-order rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SRule {
    /// S1: every persistent store on a path to a publish/commit point is
    /// covered by a flush and an sfence before that point.
    S1StoreNotCovered,
    /// S2: no checksum/table publish precedes the fold/fence covering
    /// its data.
    S2PublishBeforeCover,
    /// S3: WAL undo entries are appended and fenced before the first
    /// in-place overwrite of logged data.
    S3OverwriteBeforeLogFence,
    /// S4: recovery progress markers are stored only after the repairs
    /// they vouch for are flushed and fenced (static twin of dynamic R7).
    S4MarkerBeforeRepairFence,
    /// S5: every region begin has a matching commit/abort on all paths,
    /// and no persistent store happens outside a region in region code.
    S5UnbalancedRegion,
    /// S6: every persisted data line on an LP path is folded into some
    /// checksum before the region commits (coverage twin of dynamic R2).
    S6UncoveredData,
    /// S7: the parity line is published only after every protected store
    /// of its region — forward regions must not store data after the
    /// parity publish, and recovery must not re-publish parity while a
    /// repaired line is still unfenced (static twin of dynamic R8).
    S7ParityBeforeData,
    /// W1: the same line(s) are flushed twice with no intervening store
    /// on any path — the second flush is wasted write traffic.
    W1RedundantFlush,
    /// W2: a fence no store or flush can reach on any path — it orders
    /// nothing.
    W2RedundantFence,
    /// W3: an element flush of a line already covered by a live range
    /// flush of the same array.
    W3ShadowedFlush,
    /// W4: missed coalescing — adjacent per-element flushes in a loop
    /// body (or a per-iteration commit barrier that publishes nothing)
    /// that a single hoisted range flush/fence would cover.
    W4MissedCoalescing,
}

impl SRule {
    /// Short rule identifier (`"S1"`).
    pub fn id(self) -> &'static str {
        match self {
            SRule::S1StoreNotCovered => "S1",
            SRule::S2PublishBeforeCover => "S2",
            SRule::S3OverwriteBeforeLogFence => "S3",
            SRule::S4MarkerBeforeRepairFence => "S4",
            SRule::S5UnbalancedRegion => "S5",
            SRule::S6UncoveredData => "S6",
            SRule::S7ParityBeforeData => "S7",
            SRule::W1RedundantFlush => "W1",
            SRule::W2RedundantFence => "W2",
            SRule::W3ShadowedFlush => "W3",
            SRule::W4MissedCoalescing => "W4",
        }
    }

    /// One-line rule description.
    pub fn title(self) -> &'static str {
        match self {
            SRule::S1StoreNotCovered => "store reaches publish without covering flush+sfence",
            SRule::S2PublishBeforeCover => "checksum/table publish precedes cover of its data",
            SRule::S3OverwriteBeforeLogFence => "logged data overwritten before undo log is fenced",
            SRule::S4MarkerBeforeRepairFence => "recovery marker stored before repair fence",
            SRule::S5UnbalancedRegion => "region begin/commit unbalanced or store outside region",
            SRule::S6UncoveredData => "persisted data not folded into any checksum before commit",
            SRule::S7ParityBeforeData => {
                "parity line published before the region data it summarizes"
            }
            SRule::W1RedundantFlush => "same line flushed twice with no intervening store",
            SRule::W2RedundantFence => "fence that no unflushed store can reach",
            SRule::W3ShadowedFlush => "element flush already covered by a range flush",
            SRule::W4MissedCoalescing => "per-element flushes a single range flush would cover",
        }
    }

    /// Parse `"S1"`..`"S6"`, `"W1"`..`"W4"`.
    pub fn from_id(id: &str) -> Option<SRule> {
        match id {
            "S1" => Some(SRule::S1StoreNotCovered),
            "S2" => Some(SRule::S2PublishBeforeCover),
            "S3" => Some(SRule::S3OverwriteBeforeLogFence),
            "S4" => Some(SRule::S4MarkerBeforeRepairFence),
            "S5" => Some(SRule::S5UnbalancedRegion),
            "S6" => Some(SRule::S6UncoveredData),
            "S7" => Some(SRule::S7ParityBeforeData),
            "W1" => Some(SRule::W1RedundantFlush),
            "W2" => Some(SRule::W2RedundantFence),
            "W3" => Some(SRule::W3ShadowedFlush),
            "W4" => Some(SRule::W4MissedCoalescing),
            _ => None,
        }
    }

    /// All rules, in id order.
    pub fn all() -> [SRule; 11] {
        [
            SRule::S1StoreNotCovered,
            SRule::S2PublishBeforeCover,
            SRule::S3OverwriteBeforeLogFence,
            SRule::S4MarkerBeforeRepairFence,
            SRule::S5UnbalancedRegion,
            SRule::S6UncoveredData,
            SRule::S7ParityBeforeData,
            SRule::W1RedundantFlush,
            SRule::W2RedundantFence,
            SRule::W3ShadowedFlush,
            SRule::W4MissedCoalescing,
        ]
    }

    /// The dynamic ground truth this rule is validated against.
    pub fn dynamic_twin(self) -> Twin {
        match self {
            SRule::S1StoreNotCovered => Twin::DynamicRule("R3"),
            SRule::S2PublishBeforeCover => Twin::DynamicRule("R2"),
            SRule::S3OverwriteBeforeLogFence => Twin::DynamicRule("R4"),
            SRule::S4MarkerBeforeRepairFence => Twin::DynamicRule("R7"),
            SRule::S5UnbalancedRegion => Twin::DynamicRule("R1"),
            SRule::S6UncoveredData => Twin::DynamicRule("R2"),
            SRule::S7ParityBeforeData => Twin::DynamicRule("R8"),
            SRule::W1RedundantFlush => Twin::Counter("flushes"),
            SRule::W2RedundantFence => Twin::Counter("fences"),
            SRule::W3ShadowedFlush => Twin::Counter("flushes"),
            SRule::W4MissedCoalescing => Twin::Counter("flushes"),
        }
    }
}

/// How a static rule is cross-validated against the dynamic stack:
/// safety rules (S*) have an `lp_check` rule twin that fires on a crash
/// enumeration; efficiency rules (W*) are validated by a measured drop in
/// a simulator `Stats` counter when the flagged redundancy is removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Twin {
    /// An `lp_check::report::Rule` id (`"R1"`..`"R8"`).
    DynamicRule(&'static str),
    /// A `Stats` counter name (`"flushes"` / `"fences"`).
    Counter(&'static str),
}

impl fmt::Display for SRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.id(), self.title())
    }
}

/// One static finding, anchored to a source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// The violated rule.
    pub rule: SRule,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line of the violating call (the publish/overwrite point).
    pub line: u32,
    /// Qualified function name the finding sits in.
    pub function: String,
    /// Human-readable explanation, including related store lines.
    pub detail: String,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}:{} in {}: {} ({})",
            self.rule.id(),
            self.file,
            self.line,
            self.function,
            self.rule.title(),
            self.detail
        )
    }
}

/// A full lint run over one or more files.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Files analyzed (repo-relative), in analysis order.
    pub files: Vec<String>,
    /// Number of functions analyzed.
    pub functions: usize,
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<LintFinding>,
}

impl LintReport {
    /// Whether the run produced no findings.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings for one rule.
    pub fn of_rule(&self, rule: SRule) -> Vec<&LintFinding> {
        self.findings.iter().filter(|f| f.rule == rule).collect()
    }

    /// Whether any finding matches `rule`.
    pub fn flags(&self, rule: SRule) -> bool {
        self.findings.iter().any(|f| f.rule == rule)
    }

    /// Per-rule finding counts, in id order.
    pub fn counts(&self) -> Vec<(SRule, usize)> {
        SRule::all()
            .into_iter()
            .map(|r| (r, self.of_rule(r).len()))
            .collect()
    }

    /// Merge another report into this one (re-sorting findings).
    pub fn merge(&mut self, other: LintReport) {
        self.files.extend(other.files);
        self.functions += other.functions;
        self.findings.extend(other.findings);
        self.sort();
    }

    /// Sort and dedup findings by (file, line, rule).
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        self.findings
            .dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);
    }

    /// Render as a JSON object (hand-rolled, stable key order).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!(
            "  \"files\": [{}],\n",
            self.files
                .iter()
                .map(|f| json_str(f))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        s.push_str(&format!("  \"functions\": {},\n", self.functions));
        s.push_str(&format!("  \"clean\": {},\n", self.is_clean()));
        s.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"rule\": {}, \"title\": {}, \"file\": {}, \"line\": {}, \"function\": {}, \"detail\": {}}}{}\n",
                json_str(f.rule.id()),
                json_str(f.rule.title()),
                json_str(&f.file),
                f.line,
                json_str(&f.function),
                json_str(&f.detail),
                if i + 1 < self.findings.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "lp-lint: {} file(s), {} function(s), {} finding(s)",
            self.files.len(),
            self.functions,
            self.findings.len()
        )?;
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        if self.is_clean() {
            writeln!(f, "  clean: no persist-order violations found")?;
        } else {
            for (rule, n) in self.counts() {
                if n > 0 {
                    writeln!(f, "  {} x{}", rule, n)?;
                }
            }
        }
        Ok(())
    }
}

/// `s` as a quoted JSON string.
fn json_str(s: &str) -> String {
    format!("\"{}\"", lp_sim::json::escape(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LintReport {
        let mut r = LintReport {
            files: vec!["kernels/src/x.rs".into()],
            functions: 3,
            findings: vec![
                LintFinding {
                    rule: SRule::S2PublishBeforeCover,
                    file: "kernels/src/x.rs".into(),
                    line: 20,
                    function: "X::commit".into(),
                    detail: "table publish at line 20; unfolded store at line 12".into(),
                },
                LintFinding {
                    rule: SRule::S1StoreNotCovered,
                    file: "kernels/src/x.rs".into(),
                    line: 10,
                    function: "X::run".into(),
                    detail: "store at line 8 unflushed at publish".into(),
                },
            ],
        };
        r.sort();
        r
    }

    #[test]
    fn rule_ids_roundtrip() {
        for r in SRule::all() {
            assert_eq!(SRule::from_id(r.id()), Some(r));
        }
        assert_eq!(SRule::from_id("S9"), None);
        assert_eq!(SRule::from_id("S7"), Some(SRule::S7ParityBeforeData));
        assert_eq!(SRule::from_id("W5"), None);
    }

    #[test]
    fn safety_rules_twin_dynamic_rules_and_efficiency_rules_twin_counters() {
        for r in SRule::all() {
            match r.dynamic_twin() {
                Twin::DynamicRule(id) => {
                    assert!(r.id().starts_with('S'), "{r:?}");
                    assert!(id.starts_with('R'), "{id}");
                }
                Twin::Counter(c) => {
                    assert!(r.id().starts_with('W'), "{r:?}");
                    assert!(c == "flushes" || c == "fences", "{c}");
                }
            }
        }
    }

    #[test]
    fn sort_orders_by_file_line_rule() {
        let r = sample();
        assert_eq!(r.findings[0].line, 10);
        assert_eq!(r.findings[1].line, 20);
        assert!(!r.is_clean());
        assert!(r.flags(SRule::S1StoreNotCovered));
        assert!(!r.flags(SRule::S5UnbalancedRegion));
    }

    #[test]
    fn dedup_removes_same_site_same_rule() {
        let mut r = sample();
        let dup = r.findings[0].clone();
        r.findings.push(dup);
        r.sort();
        assert_eq!(r.findings.len(), 2);
    }

    #[test]
    fn json_has_stable_shape_and_escaping() {
        let r = sample();
        let j = r.to_json();
        assert!(j.contains("\"clean\": false"));
        assert!(j.contains("\"rule\": \"S1\""));
        assert!(j.contains("\"line\": 10"));
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn pretty_lists_findings_and_counts() {
        let r = sample();
        let s = r.to_string();
        assert!(s.contains("[S1] kernels/src/x.rs:10 in X::run"));
        assert!(s.contains("2 finding(s)"));
    }
}
