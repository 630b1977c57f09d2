//! Violation reporting: typed findings with addresses mapped back to the
//! named [`TrackedRange`] allocations they landed in.

use lp_core::track::{find_range, TrackedRange};
use lp_sim::addr::Addr;
use lp_sim::observe::RegionId;

/// The persistency-discipline rules the checker enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Store to persistent (protected) memory outside any begin/commit
    /// region.
    R1,
    /// Lazy Persistency store whose value was not folded into the region's
    /// running checksum (the persisted checksum disagrees with one
    /// recomputed from the observed stores).
    R2,
    /// EagerRecompute durable-marker store not preceded by flushes and an
    /// `sfence` covering every dirty line of the region.
    R3,
    /// WAL in-place store whose undo-log entry is not yet durably ordered
    /// (log-before-data violated).
    R4,
    /// Overlapping protected write sets between concurrently scheduled
    /// regions on different cores.
    R5,
    /// A committed Lazy region's line rewritten by a later region, before
    /// the earlier checksum reached NVMM, without a fresh checksum entry.
    R6,
    /// Non-idempotent recovery write: post-crash recovery stored a
    /// progress value (marker, WAL header, or checksum-table entry) while
    /// protected recovery stores it vouches for still lacked a covering
    /// flush + `sfence`, so a nested crash could persist the promise
    /// without the data and the re-entry would skip the repair.
    R7,
    /// Parity published ahead of the data it summarizes: a parity-arena
    /// line stored before every protected store of its region (forward
    /// path), or persisted by recovery while a repaired line it vouches
    /// for still lacked a covering flush + `sfence` — a crash would leave
    /// parity describing data that never reached NVMM, and a later repair
    /// would reconstruct from the wrong lanes.
    R8,
}

impl Rule {
    /// All rules, in order.
    pub const ALL: [Rule; 8] = [
        Rule::R1,
        Rule::R2,
        Rule::R3,
        Rule::R4,
        Rule::R5,
        Rule::R6,
        Rule::R7,
        Rule::R8,
    ];

    /// Parse a short identifier (`"R1"` … `"R8"`).
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == id)
    }

    /// Short identifier (`"R1"` … `"R8"`).
    pub fn id(self) -> &'static str {
        match self {
            Rule::R1 => "R1",
            Rule::R2 => "R2",
            Rule::R3 => "R3",
            Rule::R4 => "R4",
            Rule::R5 => "R5",
            Rule::R6 => "R6",
            Rule::R7 => "R7",
            Rule::R8 => "R8",
        }
    }

    /// One-line description of what the rule forbids.
    pub fn title(self) -> &'static str {
        match self {
            Rule::R1 => "protected store outside any persistency region",
            Rule::R2 => "store not folded into the region's running checksum",
            Rule::R3 => "durable marker advanced before region lines were flushed and fenced",
            Rule::R4 => "in-place store before its undo-log entry was durably ordered",
            Rule::R5 => "overlapping write sets between concurrently scheduled regions",
            Rule::R6 => "committed region's line rewritten before its checksum was durable",
            Rule::R7 => "recovery progress stored before the repairs it vouches for were durable",
            Rule::R8 => "parity line published ahead of the region data it summarizes",
        }
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// One observed violation of a [`Rule`].
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The rule violated.
    pub rule: Rule,
    /// The core whose access (or commit) triggered the finding.
    pub core: usize,
    /// The core-local cycle of the triggering event.
    pub cycle: u64,
    /// The offending byte address, when the finding is tied to one.
    pub addr: Option<Addr>,
    /// The offending address mapped back to its allocation, e.g.
    /// `"tmm.c[42] (protected)"`, or `"<untracked>"`.
    pub location: String,
    /// The dynamic region in force at the event, if any.
    pub region: Option<RegionId>,
    /// The region's checksum-table / marker key, when known.
    pub key: Option<usize>,
    /// Human-readable specifics of this finding.
    pub detail: String,
}

/// Map `addr` back to a named allocation (`"name[index] (role)"`).
pub fn describe_addr(ranges: &[TrackedRange], addr: Addr) -> String {
    match find_range(ranges, addr) {
        Some(r) => format!("{}[{}] ({})", r.name, r.element_of(addr), r.role),
        None => format!("<untracked {addr}>"),
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] core {} @ cycle {}: {}",
            self.rule,
            self.core,
            self.cycle,
            self.rule.title()
        )?;
        write!(f, " — {}", self.location)?;
        if let Some(region) = self.region {
            write!(f, " in {region}")?;
            if let Some(key) = self.key {
                write!(f, " (key {key})")?;
            }
        }
        write!(f, ": {}", self.detail)
    }
}

/// The checker's verdict over one run.
#[derive(Debug, Clone, Default)]
pub struct ViolationReport {
    /// Label of the checked workload (e.g. `"TMM under LP(modular)"`).
    pub label: String,
    /// Every violation, in event order.
    pub violations: Vec<Violation>,
    /// Total events the checker observed.
    pub events_seen: u64,
    /// Whether the run ended in a simulated crash (rules stop at a crash;
    /// recovery is exercised by the recovery tests, not the sanitizer).
    pub crashed: bool,
}

impl ViolationReport {
    /// `true` when no rule fired.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violations of a specific rule.
    pub fn of_rule(&self, rule: Rule) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(move |v| v.rule == rule)
    }

    /// Whether at least one violation of `rule` was found.
    pub fn flags(&self, rule: Rule) -> bool {
        self.of_rule(rule).next().is_some()
    }

    /// Per-rule counts, ordered R1..R8, rules with zero hits omitted.
    pub fn counts(&self) -> Vec<(Rule, usize)> {
        Rule::ALL
            .into_iter()
            .map(|r| (r, self.of_rule(r).count()))
            .filter(|&(_, n)| n > 0)
            .collect()
    }
}

impl std::fmt::Display for ViolationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            return write!(
                f,
                "{}: clean ({} events observed)",
                self.label, self.events_seen
            );
        }
        writeln!(
            f,
            "{}: {} violation(s) over {} events:",
            self.label,
            self.violations.len(),
            self.events_seen
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        let summary: Vec<String> = self
            .counts()
            .into_iter()
            .map(|(r, n)| format!("{r}×{n}"))
            .collect();
        write!(f, "  summary: {}", summary.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_core::track::RangeRole;

    fn ranges() -> Vec<TrackedRange> {
        vec![TrackedRange {
            name: "data".into(),
            base: Addr(128),
            bytes: 256,
            elem_bytes: 8,
            role: RangeRole::Protected,
        }]
    }

    #[test]
    fn describe_maps_and_falls_back() {
        let r = ranges();
        assert_eq!(describe_addr(&r, Addr(128 + 40)), "data[5] (protected)");
        assert!(describe_addr(&r, Addr(4096)).starts_with("<untracked"));
    }

    #[test]
    fn report_flags_and_counts() {
        let mut rep = ViolationReport {
            label: "t".into(),
            ..Default::default()
        };
        assert!(rep.is_clean());
        rep.violations.push(Violation {
            rule: Rule::R2,
            core: 0,
            cycle: 10,
            addr: Some(Addr(128)),
            location: "data[0] (protected)".into(),
            region: Some(RegionId(1)),
            key: Some(3),
            detail: "expected 1, stored 2".into(),
        });
        assert!(!rep.is_clean());
        assert!(rep.flags(Rule::R2));
        assert!(!rep.flags(Rule::R1));
        assert_eq!(rep.counts(), vec![(Rule::R2, 1)]);
        let shown = rep.to_string();
        assert!(shown.contains("R2"), "{shown}");
        assert!(shown.contains("data[0]"), "{shown}");
        assert!(shown.contains("key 3"), "{shown}");
    }

    #[test]
    fn rule_ids_and_titles_are_distinct() {
        let ids: std::collections::HashSet<_> = Rule::ALL.iter().map(|r| r.id()).collect();
        assert_eq!(ids.len(), Rule::ALL.len());
        let titles: std::collections::HashSet<_> = Rule::ALL.iter().map(|r| r.title()).collect();
        assert_eq!(titles.len(), Rule::ALL.len());
        for r in Rule::ALL {
            assert_eq!(Rule::from_id(r.id()), Some(r));
        }
        assert_eq!(Rule::from_id("R9"), None);
    }
}
