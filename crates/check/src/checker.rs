//! The shadow-state rule engine: an [`EventSink`] that replays the
//! simulator's memory-event stream against the persistency contract of the
//! scheme in force.
//!
//! The checker is deliberately *redundant* with the scheme runtimes in
//! `lp-core` — it re-derives what each rule requires from raw stores,
//! flushes, fences, and durable writebacks, so a bug (or a deliberate
//! mutation) in the runtime shows up as a disagreement. Note that under the
//! simulator's ADR model some mutations do not corrupt the simulated
//! output (an accepted flush is already durable); the checker enforces the
//! discipline real hardware needs, not merely what this model forgives.

use std::collections::{HashMap, HashSet};

use lp_core::checksum::RunningChecksum;
use lp_core::scheme::Scheme;
use lp_core::table::ChecksumTable;
use lp_core::track::{RangeRole, TrackedRange};
use lp_sim::addr::Addr;
use lp_sim::observe::{EventSink, MemEvent, RegionId};

use crate::report::{describe_addr, Rule, Violation, ViolationReport};

/// Durability progress of one cache line relative to a reference point
/// (region start or undo-log write): stored, flushed, or flushed *and*
/// covered by a later `sfence`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LineStage {
    /// Stored since the last flush of the line.
    Dirty,
    /// `clflushopt`/`clwb` issued after the last store; not yet fenced.
    Flushed,
    /// Flushed and a subsequent `sfence` retired on the issuing core.
    Fenced,
}

/// Shadow state of one open persistency region.
#[derive(Debug)]
struct OpenRegion {
    id: RegionId,
    key: usize,
    /// Checker-side recomputation of the running checksum (Lazy schemes).
    ck: Option<RunningChecksum>,
    /// Whether a checksum-table entry was stored by this region.
    ck_stored: bool,
    /// Line of the region's checksum-table entry (for R6 pending state).
    ck_line: Option<u64>,
    /// Protected lines written by the region and their flush progress
    /// (drives R3 under Eager; the key set drives R6 under Lazy).
    protected: HashMap<u64, LineStage>,
    /// Undo-log (`WalEntries`) lines written and their flush progress.
    log_lines: HashMap<u64, LineStage>,
    /// Target address → the log lines its undo record was written to.
    logged: HashMap<u64, Vec<u64>>,
    /// Target address of the last even-slot log store, awaiting its
    /// old-bits companion.
    last_log_target: Option<u64>,
    /// Lines this region rewrote that belong to an earlier committed Lazy
    /// region whose checksum is not yet durable.
    rewrites: Vec<(Addr, RegionId)>,
    /// Whether a parity-arena line was stored by this region (drives R8:
    /// parity is a summary of the region's data and must be published
    /// last, so no protected store may follow it).
    parity_stored: bool,
}

impl OpenRegion {
    fn new(id: RegionId, key: usize, scheme: Scheme) -> Self {
        OpenRegion {
            id,
            key,
            ck: match scheme {
                Scheme::Lazy(kind) | Scheme::LazyEagerCk(kind) | Scheme::LazyParity(kind) => {
                    Some(RunningChecksum::new(kind))
                }
                _ => None,
            },
            ck_stored: false,
            ck_line: None,
            protected: HashMap::new(),
            log_lines: HashMap::new(),
            logged: HashMap::new(),
            last_log_target: None,
            rewrites: Vec::new(),
            parity_stored: false,
        }
    }

    /// Promote every `Flushed` line to `Fenced` (an `sfence` retired).
    fn fence(&mut self) {
        for stage in self
            .protected
            .values_mut()
            .chain(self.log_lines.values_mut())
        {
            if *stage == LineStage::Flushed {
                *stage = LineStage::Fenced;
            }
        }
    }

    /// Record a flush of `line` issued by the owning core.
    fn flush(&mut self, line: u64) {
        for map in [&mut self.protected, &mut self.log_lines] {
            if let Some(stage) = map.get_mut(&line) {
                if *stage == LineStage::Dirty {
                    *stage = LineStage::Flushed;
                }
            }
        }
    }
}

/// A committed Lazy region whose checksum-table line has not yet reached
/// NVMM: its write set is vulnerable to torn rewrites (rule R6).
#[derive(Debug)]
struct PendingChecksum {
    region: RegionId,
    ck_line: u64,
    lines: HashSet<u64>,
}

/// The persistency-discipline sanitizer.
///
/// Install on a machine via [`lp_sim::machine::Machine::set_observer`]
/// (wrapped in `Arc<Mutex<…>>`), run the workload, then collect
/// [`Checker::report`]. See the crate docs for the rules.
#[derive(Debug)]
pub struct Checker {
    scheme: Scheme,
    ranges: Vec<TrackedRange>,
    label: String,
    violations: Vec<Violation>,
    events_seen: u64,
    crashed: bool,
    /// Open region per core (indexed by core id, grown on demand).
    open: Vec<Option<OpenRegion>>,
    /// First protected writer of each line in the current barrier epoch.
    epoch_writers: HashMap<u64, (usize, RegionId)>,
    /// Lines already reported for R5 this epoch (dedup).
    epoch_reported: HashSet<u64>,
    /// Committed Lazy regions awaiting checksum durability (R6).
    pending: Vec<PendingChecksum>,
    /// Protected lines stored by post-crash *recovery* code and their
    /// flush progress (drives R7). Cleared at every crash: unfenced
    /// recovery stores die with the caches, so a re-entry starts clean.
    rec_lines: HashMap<u64, LineStage>,
}

impl Checker {
    /// A checker for one run of `label` under `scheme`, auditing the given
    /// address ranges.
    pub fn new(scheme: Scheme, ranges: Vec<TrackedRange>, label: impl Into<String>) -> Self {
        Checker {
            scheme,
            ranges,
            label: label.into(),
            violations: Vec::new(),
            events_seen: 0,
            crashed: false,
            open: Vec::new(),
            epoch_writers: HashMap::new(),
            epoch_reported: HashSet::new(),
            pending: Vec::new(),
            rec_lines: HashMap::new(),
        }
    }

    /// Violations found so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Snapshot the verdict.
    pub fn report(&self) -> ViolationReport {
        ViolationReport {
            label: self.label.clone(),
            violations: self.violations.clone(),
            events_seen: self.events_seen,
            crashed: self.crashed,
        }
    }

    #[allow(clippy::too_many_arguments)] // one parameter per Violation field
    fn flag(
        &mut self,
        rule: Rule,
        core: usize,
        cycle: u64,
        addr: Option<Addr>,
        region: Option<RegionId>,
        key: Option<usize>,
        detail: String,
    ) {
        let location = match addr {
            Some(a) => describe_addr(&self.ranges, a),
            None => "<no address>".into(),
        };
        self.violations.push(Violation {
            rule,
            core,
            cycle,
            addr,
            location,
            region,
            key,
            detail,
        });
    }

    fn role_of(&self, addr: Addr) -> Option<(RangeRole, usize)> {
        self.ranges
            .iter()
            .position(|r| r.contains(addr))
            .map(|i| (self.ranges[i].role, i))
    }

    fn open_mut(&mut self, core: usize) -> &mut Option<OpenRegion> {
        if core >= self.open.len() {
            self.open.resize_with(core + 1, || None);
        }
        &mut self.open[core]
    }

    fn on_store(
        &mut self,
        core: usize,
        cycle: u64,
        addr: Addr,
        bits: u64,
        region: Option<RegionId>,
    ) {
        let role = self.role_of(addr).map(|(role, _)| role);
        if region.is_none() {
            if role == Some(RangeRole::Protected) {
                self.flag(
                    Rule::R1,
                    core,
                    cycle,
                    Some(addr),
                    None,
                    None,
                    format!("value bits {bits:#018x} written with no region open"),
                );
            }
            return;
        }
        // Move the open-region shadow state out of `self` for the duration
        // of the checks so rule code can borrow the rest of the checker
        // freely; it is put back (region still open) at the end.
        let Some(mut open) = self.open_mut(core).take() else {
            // A region id without a tracked begin cannot happen through
            // CoreCtx, which assigns ids at region_begin.
            return;
        };
        let line = addr.line().0;
        let (region_id, key) = (open.id, open.key);
        let mut findings: Vec<(Rule, String)> = Vec::new();
        match role {
            Some(RangeRole::Protected) => {
                // R5: overlapping write sets across cores in one epoch.
                match self.epoch_writers.get(&line) {
                    Some(&(other_core, other_region)) if other_core != core => {
                        if self.epoch_reported.insert(line) {
                            findings.push((
                                Rule::R5,
                                format!(
                                    "line L{line:#x} also written by core \
                                     {other_core} ({other_region}) in the same \
                                     scheduling epoch"
                                ),
                            ));
                        }
                    }
                    Some(_) => {}
                    None => {
                        self.epoch_writers.insert(line, (core, region_id));
                    }
                }
                // R8: parity summarizes the region's protected stores, so
                // a protected store after the parity publication leaves a
                // crash window where durable parity describes data that
                // never reached NVMM — a later repair would reconstruct
                // from the wrong lanes.
                if open.parity_stored {
                    findings.push((
                        Rule::R8,
                        format!(
                            "protected store of bits {bits:#018x} after the \
                             region's parity line was already published"
                        ),
                    ));
                }
                // R6: rewrite of a committed-but-not-durable Lazy line.
                if matches!(self.scheme, Scheme::Lazy(_) | Scheme::LazyParity(_)) {
                    if let Some(p) = self
                        .pending
                        .iter()
                        .find(|p| p.region != region_id && p.lines.contains(&line))
                    {
                        open.rewrites.push((addr, p.region));
                    }
                }
                // R4: WAL in-place data store must follow its durable
                // undo-log record.
                if matches!(self.scheme, Scheme::Wal) {
                    let ordered = open.logged.get(&addr.0).is_some_and(|lines| {
                        lines
                            .iter()
                            .all(|l| open.log_lines.get(l) == Some(&LineStage::Fenced))
                    });
                    if !ordered {
                        let why = if open.logged.contains_key(&addr.0) {
                            "its undo-log entry was written but not yet \
                             flushed and fenced"
                        } else {
                            "no undo-log entry records its old value"
                        };
                        findings.push((
                            Rule::R4,
                            format!("in-place store of bits {bits:#018x}: {why}"),
                        ));
                    }
                }
                // Fold for R2 and track the line for R3/R6.
                if let Some(ck) = open.ck.as_mut() {
                    ck.update(bits);
                }
                open.protected.insert(line, LineStage::Dirty);
            }
            Some(RangeRole::ChecksumTable) => {
                if let Some(ck) = open.ck.as_ref() {
                    let expected = ChecksumTable::sanitize_value(ck.value());
                    if bits != expected {
                        findings.push((
                            Rule::R2,
                            format!(
                                "persisted checksum {bits:#018x} disagrees with \
                                 {expected:#018x} recomputed from the region's \
                                 observed stores"
                            ),
                        ));
                    }
                    open.ck_stored = true;
                    open.ck_line = Some(line);
                }
            }
            Some(RangeRole::Markers) => {
                if matches!(self.scheme, Scheme::Eager) {
                    let unfenced: Vec<u64> = open
                        .protected
                        .iter()
                        .filter(|&(_, stage)| *stage != LineStage::Fenced)
                        .map(|(&l, _)| l)
                        .collect();
                    if !unfenced.is_empty() {
                        let still_dirty = open
                            .protected
                            .values()
                            .filter(|&&s| s == LineStage::Dirty)
                            .count();
                        findings.push((
                            Rule::R3,
                            format!(
                                "marker value {bits} stored while {} region \
                                 line(s) lack a covering flush+sfence ({} never \
                                 flushed), e.g. L{:#x}",
                                unfenced.len(),
                                still_dirty,
                                unfenced[0]
                            ),
                        ));
                    }
                }
            }
            Some(RangeRole::WalEntries) => {
                let idx = self
                    .ranges
                    .iter()
                    .find(|r| r.contains(addr))
                    .map_or(0, |r| r.element_of(addr));
                if idx % 2 == 0 {
                    // Even slot: the target address of a new record.
                    open.last_log_target = Some(bits);
                    open.logged.entry(bits).or_default().push(line);
                } else if let Some(target) = open.last_log_target {
                    // Odd slot: the record's old bits.
                    open.logged.entry(target).or_default().push(line);
                }
                open.log_lines.insert(line, LineStage::Dirty);
            }
            Some(RangeRole::ParityArena) => {
                open.parity_stored = true;
            }
            Some(RangeRole::WalHeader | RangeRole::Scratch) | None => {}
        }
        *self.open_mut(core) = Some(open);
        for (rule, detail) in findings {
            self.flag(rule, core, cycle, Some(addr), region, Some(key), detail);
        }
        debug_assert_eq!(Some(region_id), region);
    }

    fn on_commit(&mut self, core: usize, cycle: u64, region: RegionId, key: usize) {
        let Some(open) = self.open_mut(core).take() else {
            return;
        };
        if matches!(self.scheme, Scheme::Lazy(_) | Scheme::LazyParity(_)) {
            if !open.rewrites.is_empty() && !open.ck_stored {
                let (addr, victim) = open.rewrites[0];
                self.flag(
                    Rule::R6,
                    core,
                    cycle,
                    Some(addr),
                    Some(region),
                    Some(key),
                    format!(
                        "region rewrote {} line(s) of committed {victim} whose \
                         checksum has not reached NVMM, and committed without a \
                         fresh checksum entry",
                        open.rewrites.len()
                    ),
                );
            }
            if let Some(ck_line) = open.ck_line {
                self.pending.push(PendingChecksum {
                    region: open.id,
                    ck_line,
                    lines: open.protected.keys().copied().collect(),
                });
            }
        }
    }

    fn handle(&mut self, ev: &MemEvent) {
        match *ev {
            MemEvent::Store {
                core,
                cycle,
                addr,
                bits,
                region,
                ..
            } => self.on_store(core, cycle, addr, bits, region),
            MemEvent::Load { .. } => {}
            MemEvent::Flush { core, line, .. } => {
                if let Some(open) = self.open_mut(core).as_mut() {
                    open.flush(line.0);
                }
            }
            MemEvent::Sfence { core, .. } => {
                if let Some(open) = self.open_mut(core).as_mut() {
                    open.fence();
                }
            }
            MemEvent::LineDurable { line, .. } => {
                self.pending.retain(|p| p.ck_line != line.0);
            }
            MemEvent::Barrier { .. } => {
                self.epoch_writers.clear();
                self.epoch_reported.clear();
            }
            MemEvent::RegionBegin {
                core, region, key, ..
            } => {
                *self.open_mut(core) = Some(OpenRegion::new(region, key, self.scheme));
            }
            MemEvent::RegionCommit {
                core,
                cycle,
                region,
                key,
            } => self.on_commit(core, cycle, region, key),
            MemEvent::Crash { .. } => {
                // The run's forward rules stop here (caches are gone,
                // regions torn by design); the stream re-arms in
                // recovery-audit mode, where only R7 applies.
                self.crashed = true;
            }
        }
    }

    /// Recovery-audit mode: every event after a crash is audited against
    /// R7 alone. Recovery must converge under a nested crash, so a
    /// *progress* store — a marker, WAL header, or checksum-table entry a
    /// re-entry would trust — may only be issued once every protected
    /// line recovery has stored is flushed and fenced; otherwise the
    /// promise can become durable before the data it vouches for and the
    /// re-entry skips the repair.
    fn on_recovery_event(&mut self, ev: &MemEvent) {
        match *ev {
            MemEvent::Store {
                core,
                cycle,
                addr,
                bits,
                region,
                ..
            } => match self.role_of(addr).map(|(role, _)| role) {
                Some(RangeRole::Protected) => {
                    self.rec_lines.insert(addr.line().0, LineStage::Dirty);
                }
                Some(RangeRole::ParityArena) => {
                    // R8 in recovery: parity vouches for repaired data, so
                    // it may only be (re)published once every protected
                    // recovery store is flushed and fenced — otherwise a
                    // nested crash persists parity for data that died in
                    // the caches.
                    let mut unfenced: Vec<u64> = self
                        .rec_lines
                        .iter()
                        .filter(|&(_, stage)| *stage != LineStage::Fenced)
                        .map(|(&l, _)| l)
                        .collect();
                    if !unfenced.is_empty() {
                        unfenced.sort_unstable();
                        self.flag(
                            Rule::R8,
                            core,
                            cycle,
                            Some(addr),
                            region,
                            None,
                            format!(
                                "recovery parity line {bits:#018x} stored while \
                                 {} protected recovery line(s) lack a covering \
                                 flush+sfence, e.g. L{:#x}",
                                unfenced.len(),
                                unfenced[0]
                            ),
                        );
                    }
                }
                Some(RangeRole::Markers | RangeRole::WalHeader | RangeRole::ChecksumTable) => {
                    let mut unfenced: Vec<u64> = self
                        .rec_lines
                        .iter()
                        .filter(|&(_, stage)| *stage != LineStage::Fenced)
                        .map(|(&l, _)| l)
                        .collect();
                    if !unfenced.is_empty() {
                        unfenced.sort_unstable();
                        self.flag(
                            Rule::R7,
                            core,
                            cycle,
                            Some(addr),
                            region,
                            None,
                            format!(
                                "recovery progress value {bits:#018x} stored while \
                                 {} protected recovery line(s) lack a covering \
                                 flush+sfence, e.g. L{:#x}",
                                unfenced.len(),
                                unfenced[0]
                            ),
                        );
                    }
                }
                _ => {}
            },
            MemEvent::Flush { line, .. } => {
                if let Some(stage) = self.rec_lines.get_mut(&line.0) {
                    if *stage == LineStage::Dirty {
                        *stage = LineStage::Flushed;
                    }
                }
            }
            MemEvent::Sfence { .. } => {
                for stage in self.rec_lines.values_mut() {
                    if *stage == LineStage::Flushed {
                        *stage = LineStage::Fenced;
                    }
                }
            }
            MemEvent::Crash { .. } => self.rec_lines.clear(),
            _ => {}
        }
    }
}

impl EventSink for Checker {
    fn on_event(&mut self, ev: &MemEvent) {
        self.events_seen += 1;
        if self.crashed {
            self.on_recovery_event(ev);
        } else {
            self.handle(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_core::checksum::ChecksumKind;
    use lp_core::track::TrackedRange;
    use lp_sim::addr::LineAddr;
    use lp_sim::stats::WriteCause;

    fn ranges() -> Vec<TrackedRange> {
        vec![
            TrackedRange {
                name: "data".into(),
                base: Addr(0),
                bytes: 512,
                elem_bytes: 8,
                role: RangeRole::Protected,
            },
            TrackedRange {
                name: "ck".into(),
                base: Addr(1024),
                bytes: 64,
                elem_bytes: 8,
                role: RangeRole::ChecksumTable,
            },
            TrackedRange {
                name: "mk".into(),
                base: Addr(2048),
                bytes: 64,
                elem_bytes: 8,
                role: RangeRole::Markers,
            },
        ]
    }

    fn store(core: usize, addr: u64, bits: u64, region: Option<RegionId>) -> MemEvent {
        MemEvent::Store {
            core,
            cycle: 0,
            addr: Addr(addr),
            bits,
            size: 8,
            region,
        }
    }

    #[test]
    fn r1_fires_outside_regions_only() {
        let mut c = Checker::new(Scheme::lazy_default(), ranges(), "t");
        c.on_event(&store(0, 8, 42, None));
        assert!(c.report().flags(Rule::R1));

        let mut c = Checker::new(Scheme::lazy_default(), ranges(), "t");
        c.on_event(&MemEvent::RegionBegin {
            core: 0,
            cycle: 0,
            region: RegionId(1),
            key: 0,
        });
        c.on_event(&store(0, 8, 42, Some(RegionId(1))));
        assert!(!c.report().flags(Rule::R1));
    }

    #[test]
    fn r2_catches_a_skipped_fold() {
        let kind = ChecksumKind::Modular;
        for skip in [false, true] {
            let mut c = Checker::new(Scheme::Lazy(kind), ranges(), "t");
            c.on_event(&MemEvent::RegionBegin {
                core: 0,
                cycle: 0,
                region: RegionId(1),
                key: 2,
            });
            let mut ck = RunningChecksum::new(kind);
            for i in 0..4u64 {
                let bits = 100 + i;
                c.on_event(&store(0, i * 8, bits, Some(RegionId(1))));
                if !(skip && i == 1) {
                    ck.update(bits);
                }
            }
            let entry = ChecksumTable::sanitize_value(ck.value());
            c.on_event(&store(0, 1024 + 16, entry, Some(RegionId(1))));
            assert_eq!(c.report().flags(Rule::R2), skip, "skip={skip}");
        }
    }

    #[test]
    fn r5_needs_two_cores_in_one_epoch() {
        let mut c = Checker::new(Scheme::Base, ranges(), "t");
        for core in 0..2 {
            c.on_event(&MemEvent::RegionBegin {
                core,
                cycle: 0,
                region: RegionId(core as u64),
                key: core,
            });
        }
        // Same core twice: fine. Other core, same line: R5.
        c.on_event(&store(0, 0, 1, Some(RegionId(0))));
        c.on_event(&store(0, 8, 1, Some(RegionId(0))));
        assert!(!c.report().flags(Rule::R5));
        c.on_event(&store(1, 16, 1, Some(RegionId(1))));
        assert!(c.report().flags(Rule::R5));

        // After a barrier the epoch resets.
        let mut c = Checker::new(Scheme::Base, ranges(), "t");
        for core in 0..2 {
            c.on_event(&MemEvent::RegionBegin {
                core,
                cycle: 0,
                region: RegionId(core as u64),
                key: core,
            });
        }
        c.on_event(&store(0, 0, 1, Some(RegionId(0))));
        c.on_event(&MemEvent::Barrier { cycle: 5 });
        c.on_event(&store(1, 16, 1, Some(RegionId(1))));
        assert!(!c.report().flags(Rule::R5));
    }

    #[test]
    fn r6_pending_clears_when_checksum_line_is_durable() {
        let kind = ChecksumKind::Modular;
        for durable_first in [false, true] {
            let mut c = Checker::new(Scheme::Lazy(kind), ranges(), "t");
            // Region 1 stores data + checksum, commits.
            c.on_event(&MemEvent::RegionBegin {
                core: 0,
                cycle: 0,
                region: RegionId(1),
                key: 0,
            });
            let mut ck = RunningChecksum::new(kind);
            ck.update(7);
            c.on_event(&store(0, 0, 7, Some(RegionId(1))));
            c.on_event(&store(
                0,
                1024,
                ChecksumTable::sanitize_value(ck.value()),
                Some(RegionId(1)),
            ));
            c.on_event(&MemEvent::RegionCommit {
                core: 0,
                cycle: 1,
                region: RegionId(1),
                key: 0,
            });
            if durable_first {
                c.on_event(&MemEvent::LineDurable {
                    line: LineAddr(1024 >> 6),
                    cycle: 2,
                    cause: WriteCause::Flush,
                });
            }
            // Region 2 rewrites the same line and commits with no checksum.
            c.on_event(&MemEvent::RegionBegin {
                core: 0,
                cycle: 3,
                region: RegionId(2),
                key: 1,
            });
            c.on_event(&store(0, 8, 9, Some(RegionId(2))));
            c.on_event(&MemEvent::RegionCommit {
                core: 0,
                cycle: 4,
                region: RegionId(2),
                key: 1,
            });
            assert_eq!(
                c.report().flags(Rule::R6),
                !durable_first,
                "durable_first={durable_first}"
            );
        }
    }

    #[test]
    fn r7_fires_on_progress_before_fenced_recovery_data() {
        for disciplined in [false, true] {
            let mut c = Checker::new(Scheme::Eager, ranges(), "t");
            c.on_event(&MemEvent::Crash { cycle: 1 });
            // Recovery repairs protected data…
            c.on_event(&store(0, 8, 42, None));
            if disciplined {
                c.on_event(&MemEvent::Flush {
                    core: 0,
                    cycle: 2,
                    line: LineAddr(0),
                    keep: false,
                    region: None,
                });
                c.on_event(&MemEvent::Sfence {
                    core: 0,
                    cycle: 3,
                    region: None,
                });
            }
            // …then stores its progress marker.
            c.on_event(&store(0, 2048, 1, None));
            assert_eq!(c.report().flags(Rule::R7), !disciplined, "{disciplined}");
        }
    }

    #[test]
    fn r7_rearms_clean_after_a_nested_crash() {
        let mut c = Checker::new(Scheme::Eager, ranges(), "t");
        c.on_event(&MemEvent::Crash { cycle: 1 });
        c.on_event(&store(0, 8, 42, None)); // unfenced, but then…
        c.on_event(&MemEvent::Crash { cycle: 2 }); // …lost with the caches
        c.on_event(&store(0, 2048, 1, None));
        assert!(!c.report().flags(Rule::R7));
    }

    #[test]
    fn crash_stops_the_audit() {
        let mut c = Checker::new(Scheme::lazy_default(), ranges(), "t");
        c.on_event(&MemEvent::Crash { cycle: 9 });
        c.on_event(&store(0, 8, 42, None)); // would be R1 pre-crash
        let rep = c.report();
        assert!(rep.crashed);
        assert!(rep.is_clean());
    }
}
