//! The model-checking engine: snapshot the census at every crash point in
//! one forward pass, enumerate the reachable NVMM states, run real
//! recovery on each new state, classify.
//!
//! # Snapshot-resume exploration
//!
//! The engine runs each case forward exactly twice. The first run is the
//! crash-free *reference*: it must complete and verify, and it records
//! every crash-point candidate natively (no observer on the hot path).
//! The second run arms census snapshots at the selected points and
//! captures, at each one, the same [`lp_sim::memsys::CrashCensus`] a
//! crash there would have — the simulator is deterministic and an armed
//! crash has no effect before it fires, so the machine state at op `p` is
//! identical either way (asserted by the sim crate's own tests). Workers
//! then *resume* from a snapshot by materializing a census subset into a
//! COW NVMM fork ([`Machine::fork_with_image`]) instead of rebuilding the
//! case and replaying ops `0..p` per point, which the previous engine
//! spent O(points × trace) redundant simulation on.
//!
//! # Recycled post-crash machines
//!
//! A work unit judges its states one after another, so it keeps the
//! machine of the last judged state as a spare and builds the next
//! post-crash machine with [`Machine::refork`] instead of a fresh fork.
//! A recycled machine equals `fork_with_image` of the same image — every
//! part but the cache arrays is built new, and the caches are reset to
//! their newly built state — but the reset costs only the ways the last
//! recovery filled, so judging a state allocates no NVMM image and no
//! cache arrays. The first state of a unit forks; a machine whose
//! recovery or verification panicked is dropped, not recycled.
//!
//! # Crash-state deduplication
//!
//! Distinct census subsets frequently materialize the *same* durable
//! image (entries that duplicate each other or the floor). Every state is
//! fingerprinted — a 128-bit FNV over its touched lines plus its pending
//! fault draws — and a repeat fingerprint at the same crash point replays
//! the memoized verdict instead of re-running recovery. Duplicates still
//! count in the census totals, and the hit counting is defined by subset
//! order alone ("seen at an earlier subset of this point"), so reports
//! are byte-identical whether deduplication is on or off and at any
//! thread count; `--dedup off` only forfeits the wall-clock savings.
//!
//! # Parallel exploration
//!
//! The engine decomposes a run into independent *work units* — one per
//! `(case, crash point, subset range)`, ranges sized to the thread count
//! — and fans them across host threads with
//! [`lp_sim::par::par_map`], which accumulates results
//! worker-locally and merges once at the end. Every stochastic choice is
//! drawn from an [`Rng64::new_stream`] keyed by the individual *state*
//! `(case, point, subset index)`, never by the unit, so re-chunking the
//! work (more threads, fewer subsets per unit) cannot move a fault draw.
//! Results merge strictly in unit order, which makes the reports
//! byte-identical at any thread count (see DESIGN.md, "Parallel
//! execution model" and "Snapshot-resume and crash-state dedup").

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use lp_core::recovery::RecoveryStats;
use lp_sim::addr::{LineAddr, LINE_BYTES};
use lp_sim::config::MachineConfig;
use lp_sim::fault::{draw_word_masks_into, flip_bit, FaultConfig};
use lp_sim::machine::{Machine, Outcome, ThreadPlan};
use lp_sim::mem::Nvmm;
use lp_sim::memsys::CrashCensus;
use lp_sim::memsys::CrashTrigger;
use lp_sim::par::par_map;
use lp_sim::rng::Rng64;

/// Salt mixed into the seed for the fault-injection RNG streams, so fault
/// placement is independent of (but as reproducible as) subset sampling.
const FAULT_SALT: u64 = 0xFA17_0A75_11EC_7ED5;

/// One freshly-built, never-run instance of a checked workload.
///
/// The machine is *not* clonable (plans hold `FnOnce` region closures),
/// so the checker rebuilds the case from its factory for each of its two
/// forward passes; determinism of the simulator guarantees each rebuild
/// behaves identically.
pub struct PreparedCase {
    /// The machine with the workload's data initialized.
    pub machine: Machine,
    /// One plan per logical core.
    pub plans: Vec<ThreadPlan<'static>>,
    /// The scheme's real crash recovery (run on a forked post-crash
    /// image before `verify`).
    pub recover: Box<dyn Fn(&mut Machine) -> RecoveryStats + Send + Sync>,
    /// Checks the durable image against the crash-free expectation.
    pub verify: Box<dyn Fn(&Machine) -> bool + Send + Sync>,
    /// Lines the fault campaign may silently bit-flip (empty disables
    /// flips for this case; only Lazy schemes detect silent corruption).
    pub flip_lines: Vec<LineAddr>,
    /// Lines the fault campaign may poison (empty disables poison).
    pub poison_lines: Vec<LineAddr>,
}

/// A checkable workload: a name plus a factory producing fresh,
/// identically-behaving instances.
///
/// The factory is `Send + Sync` so any worker thread can rebuild the
/// case; in practice factories capture only plain configuration data.
pub struct CheckCase {
    /// Display name (`TMM/LP(modular)`, `mut:ep_skip_fence`, ...).
    pub name: String,
    /// Builds one fresh instance per forward pass.
    pub build: Box<dyn Fn() -> PreparedCase + Send + Sync>,
}

/// How many crash points to visit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetMode {
    /// Every discovered crash point.
    Exhaustive,
    /// A deterministic seeded sample of this many points (first and last
    /// always included).
    Sampled(usize),
    /// A fixed tiny sample for CI gates.
    Smoke,
}

/// Points visited under [`BudgetMode::Smoke`].
pub const SMOKE_POINTS: usize = 12;

/// The checker's exploration budget.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Crash-point selection policy.
    pub mode: BudgetMode,
    /// Census-size bound: up to `2^k` subsets per crash point. Censuses
    /// with at most `k` undetermined lines are enumerated exhaustively;
    /// larger ones are sampled (empty and full subsets always included).
    pub k: u32,
    /// Fault classes injected on top of the clean ADR crash model.
    pub faults: FaultConfig,
    /// Skip recovery on states whose dedup key was already judged at the
    /// same crash point (`true` everywhere except A/B validation runs).
    /// Reports are byte-identical either way; `false` only costs time.
    pub dedup: bool,
}

impl Budget {
    fn mode_name(&self) -> String {
        match self.mode {
            BudgetMode::Exhaustive => "exhaustive".into(),
            BudgetMode::Sampled(n) => format!("sampled({n})"),
            BudgetMode::Smoke => format!("smoke({SMOKE_POINTS})"),
        }
    }
}

/// Verdict for one materialized post-crash state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateClass {
    /// Recovery restored the crash-free output exactly.
    Consistent,
    /// Recovery finished but the durable output is wrong.
    Corrupt,
    /// Recovery panicked (could not make progress on this image).
    Stuck,
}

/// Per-class fault bookkeeping for one campaign (additive across work
/// units; merged strictly in unit order, so byte-identical at any host
/// thread count).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTally {
    /// States materialized with torn (word-granular) line persists.
    pub torn_states: u64,
    /// 8-byte words of selected census entries dropped by torn masks.
    pub torn_words_dropped: u64,
    /// Silent single-bit flips injected into post-crash images.
    pub flips: u64,
    /// Flip states where recovery reported at least one inconsistent or
    /// quarantined region (it noticed damage and repaired).
    pub flips_detected: u64,
    /// Flip states recovery reported nothing for, yet the output still
    /// verified (the flipped line was overwritten by replay).
    pub flips_benign: u64,
    /// Flip states with neither detection nor a correct output — real
    /// undetected corruption (must stay zero for a sound scheme).
    pub flips_missed: u64,
    /// Poisoned (unreadable) lines injected into post-crash images.
    pub poisons: u64,
    /// Poison draws widened to two adjacent lines (media bursts). Each
    /// burst also counts twice in `poisons` (one per poisoned line).
    pub bursts: u64,
    /// Poison states recovery quarantined or repaired in place
    /// (regions_quarantined > 0 or repaired_lines > 0).
    pub poisons_detected: u64,
    /// Poison states whose image held no poisoned line after recovery —
    /// every poisoned line was rebuilt and scrubbed.
    pub poisons_scrubbed: u64,
    /// Crashes injected *during* recovery that actually fired.
    pub nested_crashes: u64,
    /// Recovery re-entries forced by nested crashes.
    pub retries: u64,
    /// States that consumed the full nested-crash bound before the final
    /// crash-free attempt converged.
    pub retry_exhausted: u64,
    /// Lines rebuilt in place from the parity arena (repair-ladder rung 1)
    /// across all converged recoveries.
    pub repaired_lines: u64,
    /// Rung-1 repair attempts that refused or failed verification.
    pub repair_failures: u64,
    /// Regions that fell from rung 1 to rung 2 (recompute/quarantine)
    /// after a failed repair attempt.
    pub escalations: u64,
}

impl FaultTally {
    /// Fold another tally into this one (all counters are additive).
    pub fn merge(&mut self, o: &FaultTally) {
        self.torn_states += o.torn_states;
        self.torn_words_dropped += o.torn_words_dropped;
        self.flips += o.flips;
        self.flips_detected += o.flips_detected;
        self.flips_benign += o.flips_benign;
        self.flips_missed += o.flips_missed;
        self.poisons += o.poisons;
        self.bursts += o.bursts;
        self.poisons_detected += o.poisons_detected;
        self.poisons_scrubbed += o.poisons_scrubbed;
        self.nested_crashes += o.nested_crashes;
        self.retries += o.retries;
        self.retry_exhausted += o.retry_exhausted;
        self.repaired_lines += o.repaired_lines;
        self.repair_failures += o.repair_failures;
        self.escalations += o.escalations;
    }

    /// One indented summary line for fault-campaign tables.
    pub fn summary_line(&self) -> String {
        format!(
            "    faults: torn {} ({} words)  flips {} (det {} benign {} missed {})  \
             poison {} (bursts {} det {} scrubbed {})  \
             repair {} (failed {} escalated {})  nested {} (retries {} exhausted {})",
            self.torn_states,
            self.torn_words_dropped,
            self.flips,
            self.flips_detected,
            self.flips_benign,
            self.flips_missed,
            self.poisons,
            self.bursts,
            self.poisons_detected,
            self.poisons_scrubbed,
            self.repaired_lines,
            self.repair_failures,
            self.escalations,
            self.nested_crashes,
            self.retries,
            self.retry_exhausted,
        )
    }
}

/// One bad state, kept as a reproducible example.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadState {
    /// The crash point (memory-operation index the crash fired after).
    pub op: u64,
    /// Census size at that point.
    pub census: usize,
    /// The selected subset, as a bit string (`entries[i]` = char `i`).
    pub subset: String,
    /// What went wrong.
    pub class: StateClass,
}

/// The outcome of checking one case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McReport {
    /// The case's display name.
    pub case_name: String,
    /// Seed every sampling decision derived from.
    pub seed: u64,
    /// Census-size bound used.
    pub k: u32,
    /// Budget mode description.
    pub mode: String,
    /// Crash points discovered in the workload.
    pub points_total: usize,
    /// Crash points actually visited (the selected list).
    pub points: Vec<u64>,
    /// Largest census met at any visited point.
    pub max_census: usize,
    /// Post-crash states materialized and judged (deduplicated states
    /// included — a duplicate is judged by memo replay).
    pub states_checked: u64,
    /// States whose recovery restored the reference output.
    pub consistent: u64,
    /// States with silent corruption after recovery.
    pub corrupt: u64,
    /// States on which recovery panicked.
    pub stuck: u64,
    /// States whose dedup key had already been met at an earlier subset
    /// of the same crash point. Independent of thread count and of the
    /// `--dedup` setting (the flag controls skipping, not counting).
    pub dedup_hits: u64,
    /// Simulated memory ops the snapshot-resume pass saved versus
    /// replaying each visited crash point from op 0 (Σ points − one
    /// trace), i.e. the redundant work the previous engine performed.
    pub replay_saved_ops: u64,
    /// The fault classes this campaign injected (display form).
    pub faults: String,
    /// Per-class fault bookkeeping (all zero when `faults` is "none").
    pub tally: FaultTally,
    /// Up to [`Self::MAX_EXAMPLES`] reproducible bad states.
    pub examples: Vec<BadState>,
}

impl McReport {
    /// How many bad-state examples a report retains.
    pub const MAX_EXAMPLES: usize = 4;

    /// `true` when every explored state recovered consistently.
    pub fn clean(&self) -> bool {
        self.corrupt == 0 && self.stuck == 0
    }

    /// `true` when at least one corrupt-or-stuck state was found (what a
    /// mutation run must produce).
    pub fn flagged(&self) -> bool {
        !self.clean()
    }

    /// One summary line for tables.
    pub fn summary_line(&self) -> String {
        format!(
            "{:<28} points {:>5}/{:<5} states {:>7}  corrupt {:>5}  stuck {:>3}  max-census {:>3}  dedup {:>6}",
            self.case_name,
            self.points.len(),
            self.points_total,
            self.states_checked,
            self.corrupt,
            self.stuck,
            self.max_census,
            self.dedup_hits,
        )
    }
}

/// Apply the budget to the candidate list (deterministic in `seed`).
fn select_points(candidates: &[u64], budget: &Budget, seed: u64) -> Vec<u64> {
    let cap = match budget.mode {
        BudgetMode::Exhaustive => return candidates.to_vec(),
        BudgetMode::Sampled(n) => n.max(2),
        BudgetMode::Smoke => SMOKE_POINTS,
    };
    if candidates.len() <= cap {
        return candidates.to_vec();
    }
    // First and last always; the rest via a partial Fisher-Yates shuffle
    // of the interior indices so the sample is without replacement.
    let mut idx: Vec<usize> = (1..candidates.len() - 1).collect();
    let mut rng = Rng64::new_stream(seed, u64::MAX);
    let take = (cap - 2).min(idx.len());
    for i in 0..take {
        let j = i + rng.below(idx.len() - i);
        idx.swap(i, j);
    }
    let mut sel = vec![candidates[0], *candidates.last().expect("nonempty")];
    sel.extend(idx[..take].iter().map(|&i| candidates[i]));
    sel.sort_unstable();
    sel.dedup();
    sel
}

/// Enumerate the census subsets to materialize at one crash point:
/// all `2^m` when `m <= k`, else the empty and full subsets plus
/// `2^k - 2` seeded random ones (stream = the crash point, so every
/// point's sample is independent yet reproducible from `seed`).
fn enumerate_subsets(m: usize, k: u32, seed: u64, point: u64) -> Vec<Vec<bool>> {
    if (m as u32) <= k {
        return (0..(1u64 << m))
            .map(|mask| (0..m).map(|i| mask >> i & 1 == 1).collect())
            .collect();
    }
    let mut out = vec![vec![false; m], vec![true; m]];
    let mut rng = Rng64::new_stream(seed, point);
    for _ in 0..(1usize << k).saturating_sub(2) {
        out.push((0..m).map(|_| rng.chance(0.5)).collect());
    }
    out
}

/// How many subsets [`enumerate_subsets`] yields for an `m`-entry census,
/// computable without enumerating (used to slice work units).
fn subset_count(m: usize, k: u32) -> usize {
    if (m as u32) <= k {
        1usize << m
    } else {
        1usize << k
    }
}

fn subset_string(sel: &[bool]) -> String {
    sel.iter().map(|&s| if s { '1' } else { '0' }).collect()
}

/// One case, prepared for exploration: reference verified, crash points
/// selected, and a census snapshot captured at every selected point by a
/// single forward pass. Shared read-only across workers; each worker
/// resumes a state by forking `machine` with a materialized image.
struct CaseRuntime {
    /// The snapshot-pass machine (completed run; forked per state for its
    /// config and heap layout, never mutated again).
    machine: Machine,
    /// The case's real crash recovery.
    recover: Box<dyn Fn(&mut Machine) -> RecoveryStats + Send + Sync>,
    /// The case's output check.
    verify: Box<dyn Fn(&Machine) -> bool + Send + Sync>,
    /// Lines the fault campaign may silently bit-flip.
    flip_lines: Vec<LineAddr>,
    /// Lines the fault campaign may poison.
    poison_lines: Vec<LineAddr>,
    /// Crash-point candidates discovered (before budget selection).
    points_total: usize,
    /// The selected crash points, ascending.
    points: Vec<u64>,
    /// The census at each selected point (parallel to `points`).
    censuses: Vec<CrashCensus>,
    /// Total memory ops in one forward pass of the trace.
    trace_ops: u64,
}

/// One flattened unit of exploration work — a contiguous range of subset
/// indices at one crash point — independent of all others.
#[derive(Debug, Clone, Copy)]
struct WorkUnit {
    case: usize,
    point_idx: usize,
    start: usize,
    end: usize,
}

/// The counts and examples one work unit contributes to its case report.
#[derive(Debug, Default)]
struct UnitResult {
    census: usize,
    states_checked: u64,
    consistent: u64,
    corrupt: u64,
    stuck: u64,
    dedup_hits: u64,
    tally: FaultTally,
    examples: Vec<BadState>,
}

/// Subsets judged per work unit: fewer when more workers are available,
/// so even a default-bound census (`k = 4` ⇒ 16 subsets) splits across
/// an 8-thread host instead of leaving most workers idle — the previous
/// fixed 64-subsets-per-unit floor made every point a single unit and
/// starved wide hosts on the kernel matrix. The floor of 8 keeps the
/// per-unit preamble (hash-only pass over earlier subsets) amortized.
fn subsets_per_unit(threads: usize) -> usize {
    (64 / threads.max(1)).max(8)
}

/// The fault/sampling RNG stream for one state, keyed by `(case, point,
/// subset index)` — never by the work unit — so re-chunking the subset
/// ranges (a different `--threads`) cannot move any draw.
fn state_rng(seed: u64, case: usize, point: u64, subset_idx: usize) -> Rng64 {
    let stream = (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ point.wrapping_mul(0x2545_F491_4F6C_DD1D)
        ^ (subset_idx as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    Rng64::new_stream(seed ^ FAULT_SALT, stream)
}

/// Verify the crash-free reference run, select this case's crash points,
/// and capture a census snapshot at each (phase 1; parallel over cases).
fn prepare_case(case: &CheckCase, budget: &Budget, seed: u64) -> CaseRuntime {
    // Crash-free reference: the workload must complete and verify on its
    // own before any crash state is judged against it. The same run
    // records every crash-point candidate natively (no observer, no
    // second discovery pass).
    let mut reference = (case.build)();
    reference.machine.set_candidate_tracking(true);
    let plans = std::mem::take(&mut reference.plans);
    assert_eq!(
        reference.machine.run(plans),
        Outcome::Completed,
        "{}: reference run did not complete",
        case.name
    );
    let candidates = reference.machine.take_crash_candidates();
    reference.machine.drain_caches();
    assert!(
        (reference.verify)(&reference.machine),
        "{}: crash-free reference run failed verification",
        case.name
    );
    let points = select_points(&candidates, budget, seed);

    // Snapshot pass: one more forward run, capturing at every selected
    // point the census a crash there would have seen. This replaces the
    // previous engine's rebuild-and-replay per (point, chunk) unit.
    let mut inst = (case.build)();
    inst.machine.set_adr_tracking(true);
    inst.machine.set_snapshot_points(&points);
    let plans = std::mem::take(&mut inst.plans);
    assert_eq!(
        inst.machine.run(plans),
        Outcome::Completed,
        "{}: snapshot run did not complete",
        case.name
    );
    let snapshots = inst.machine.take_snapshots();
    let trace_ops = inst.machine.mem().mem_ops();
    assert_eq!(
        snapshots.len(),
        points.len(),
        "{}: every candidate point lies within the trace",
        case.name
    );
    CaseRuntime {
        machine: inst.machine,
        recover: inst.recover,
        verify: inst.verify,
        flip_lines: inst.flip_lines,
        poison_lines: inst.poison_lines,
        points_total: candidates.len(),
        points,
        censuses: snapshots.into_iter().map(|(_, c)| c).collect(),
        trace_ops,
    }
}

/// One materialized post-crash state: the image (torn persists and any
/// bit flip already applied) plus the fault draws that produced it.
struct Materialized {
    image: Nvmm,
    torn_words_dropped: u64,
    flip_line: Option<LineAddr>,
    poison_line: Option<LineAddr>,
    /// Second poisoned line of a media burst (an address-adjacent
    /// repairable neighbour of `poison_line`), when `burst` is on and
    /// such a neighbour exists.
    poison_partner: Option<LineAddr>,
}

/// Materialize the post-crash image for one census subset, drawing every
/// fault decision for this state from `frng` (draw order is part of the
/// determinism contract: torn masks, flip line, flip bit, poison line;
/// the burst partner is derived from the poison draw, not drawn, so
/// enabling `burst` does not shift any stream).
fn materialize_state(
    census: &CrashCensus,
    sel: &[bool],
    faults: &FaultConfig,
    flip_lines: &[LineAddr],
    poison_lines: &[LineAddr],
    frng: &mut Rng64,
    scratch: &mut UnitScratch,
) -> Materialized {
    let (mut image, torn_words_dropped) = if faults.torn {
        // ADR is word-atomic, not line-atomic: each selected entry
        // persists only the words its drawn mask keeps.
        draw_word_masks_into(frng, sel.len(), &mut scratch.masks);
        let masks = &scratch.masks;
        let mut dropped = 0u64;
        for (i, &s) in sel.iter().enumerate() {
            if s {
                dropped += u64::from(masks[i].count_zeros());
            }
        }
        (census.materialize_subset_torn(sel, masks), dropped)
    } else {
        (census.materialize_subset(sel), 0)
    };
    let mut flip_line = None;
    let mut poison_line = None;
    if faults.media {
        if !flip_lines.is_empty() {
            let line = flip_lines[frng.below(flip_lines.len())];
            let bit = frng.below(LINE_BYTES * 8);
            flip_bit(&mut image, line, bit);
            flip_line = Some(line);
        }
        if !poison_lines.is_empty() {
            poison_line = Some(poison_lines[frng.below(poison_lines.len())]);
        }
    }
    // A burst takes out the drawn line plus an address-adjacent
    // repairable neighbour (next line first, previous as fallback).
    // Restricting the partner to `poison_lines` keeps the campaign's
    // contract that every poisoned line is rebuildable by recovery;
    // a line with no such neighbour degenerates to a single poison.
    let poison_partner = match poison_line {
        Some(line) if faults.burst => {
            let next = LineAddr(line.0 + 1);
            let prev = LineAddr(line.0.wrapping_sub(1));
            if poison_lines.contains(&next) {
                Some(next)
            } else if line.0 > 0 && poison_lines.contains(&prev) {
                Some(prev)
            } else {
                None
            }
        }
        _ => None,
    };
    Materialized {
        image,
        torn_words_dropped,
        flip_line,
        poison_line,
        poison_partner,
    }
}

/// Two independent FNV-1a lanes over the same bytes: a 128-bit-effective
/// fingerprint, std-only, cheap enough to run on every state.
struct Fnv2 {
    a: u64,
    b: u64,
}

impl Fnv2 {
    fn new() -> Self {
        Fnv2 {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0xaf63_bd4c_8601_b7df,
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        for &x in bytes {
            self.a = (self.a ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01B3);
            self.b = (self.b ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

/// Allocation arena reused across every state a work unit replays: the
/// torn-mask draw buffer and the dedup-key line list are cleared and
/// refilled per state instead of reallocated, and the post-crash machine
/// of the last judged state is kept as a spare that the next state
/// [`Machine::refork`]s over its own image — a recycled machine equals a
/// fresh fork but costs only the cache ways the last recovery touched,
/// not a newly zeroed NVMM image and cache arrays (the materialized
/// images themselves are cheap COW overlay forks and are not pooled).
/// The spare comes from, and goes back to, the call's [`MachinePool`].
#[derive(Default)]
struct UnitScratch {
    masks: Vec<u8>,
    lines: Vec<LineAddr>,
    spare: Option<Machine>,
}

/// The spare post-crash machines of one [`check_cases`] call, handed from
/// one work unit to the next so that only a unit that finds no spare of
/// its case's configuration builds one (two L1s and an L2, for the first
/// state it judges).
///
/// A worker holds at most one machine while it runs a unit, and a unit
/// that finds no spare of its configuration drops one of another before
/// it builds its own, so no more machines are alive at once than there
/// are workers. Any spare of the right configuration will do: a
/// recycled machine equals a fresh fork whatever it judged before.
#[derive(Default)]
struct MachinePool(Mutex<Vec<Machine>>);

/// A unit holds the pool's lock only to move one machine in or out.
const POOL_POISONED: &str = "a work unit panicked while moving a machine in or out of the pool";

impl MachinePool {
    /// A spare built with `cfg`, if the pool holds one. Otherwise one
    /// spare of another configuration, if any, is dropped.
    fn take(&self, cfg: &MachineConfig) -> Option<Machine> {
        let mut spares = self.0.lock().expect(POOL_POISONED);
        match spares.iter().position(|m| m.cfg() == cfg) {
            Some(i) => Some(spares.swap_remove(i)),
            None => {
                let other = spares.pop();
                drop(spares);
                drop(other);
                None
            }
        }
    }

    /// Return a unit's spare for the units after it.
    fn give_back(&self, spare: Machine) {
        self.0.lock().expect(POOL_POISONED).push(spare);
    }
}

/// The dedup key of one state: a fingerprint of every line the census (or
/// a fault) may have touched in the materialized image, the pending
/// poison draw, and — when nested-crash injection is live — the exact
/// remaining fault-RNG stream. Two states with equal keys are judged
/// identically (same image, same recovery-time randomness), so a repeat
/// key can replay the memoized verdict; the RNG fingerprint keeps states
/// with different pending draws apart even when their images collide.
fn state_key(
    census: &CrashCensus,
    mat: &Materialized,
    rng_fp: Option<u64>,
    scratch: &mut UnitScratch,
) -> (u64, u64) {
    let lines = &mut scratch.lines;
    lines.clear();
    lines.extend(census.entries.iter().map(|e| e.line));
    if let Some(l) = mat.flip_line {
        lines.push(l);
    }
    lines.sort_unstable();
    lines.dedup();
    let mut h = Fnv2::new();
    let mut buf = [0u8; LINE_BYTES];
    for &line in lines.iter() {
        h.write_u64(line.0);
        mat.image.read_line(line, &mut buf);
        h.write(&buf);
    }
    h.write_u64(mat.poison_line.map_or(u64::MAX, |l| l.0));
    h.write_u64(mat.poison_partner.map_or(u64::MAX, |l| l.0));
    match rng_fp {
        Some(fp) => {
            h.write_u64(1);
            h.write_u64(fp);
        }
        None => h.write_u64(0),
    }
    (h.a, h.b)
}

/// Everything judging one state produces — memoized by dedup so a repeat
/// state replays the verdict (class counters *and* recovery-side fault
/// bookkeeping) without running recovery again.
#[derive(Debug, Clone, Copy)]
struct StateOutcome {
    class: StateClass,
    flip_detected: bool,
    flip_benign: bool,
    flip_missed: bool,
    poison_detected: bool,
    poison_scrubbed: bool,
    nested_crashes: u64,
    retries: u64,
    retry_exhausted: bool,
    repaired_lines: u64,
    repair_failures: u64,
    escalations: u64,
}

/// Resume one materialized state (fork the snapshot machine with its
/// image, recycling `spare` when there is one), run real recovery with
/// nested-crash injection, and classify. The post-crash machine goes back
/// into `spare` unless recovery or verification panicked.
fn judge_state(
    rt: &CaseRuntime,
    mat: Materialized,
    faults: &FaultConfig,
    frng: &mut Rng64,
    spare: &mut Option<Machine>,
) -> StateOutcome {
    let Materialized {
        image,
        flip_line,
        poison_line,
        poison_partner,
        ..
    } = mat;
    let mut post = match spare.take() {
        Some(m) => m.refork(&rt.machine, image),
        None => rt.machine.fork_with_image(image),
    };
    if let Some(line) = poison_line {
        post.mem_mut().poison_line(line);
    }
    if let Some(partner) = poison_partner {
        post.mem_mut().poison_line(partner);
    }
    let mut out = StateOutcome {
        class: StateClass::Stuck,
        flip_detected: false,
        flip_benign: false,
        flip_missed: false,
        poison_detected: false,
        poison_scrubbed: false,
        nested_crashes: 0,
        retries: 0,
        retry_exhausted: false,
        repaired_lines: 0,
        repair_failures: 0,
        escalations: 0,
    };

    // Recovery, with up to `nested_bound` crashes injected *during* it;
    // the attempt after the bound runs crash-free, so a convergent
    // (idempotent) recovery always terminates the loop. An injected
    // crash is not a panic: the machine's `crashed` flag rises and
    // subsequent ops no-op, so `recover` returns normally and the flag
    // tells the attempts apart from genuine stuckness.
    let recover = &rt.recover;
    let verify = &rt.verify;
    let bound = if faults.nested {
        faults.nested_bound
    } else {
        0
    };
    let mut state_retries = 0u64;
    let mut converged: Option<RecoveryStats> = None;
    let mut stuck = false;
    for attempt in 0..=bound {
        if attempt < bound {
            // Log-uniform offset: dense coverage of the first few
            // recovery ops (short hardening windows) while still
            // reaching deep into long kernel replays.
            let magnitude = frng.below(13);
            let offset = 1 + frng.below(1usize << magnitude);
            let at = post.mem().mem_ops() + offset as u64;
            post.set_crash_trigger(CrashTrigger::AfterMemOps(at));
        }
        let r = catch_unwind(AssertUnwindSafe(|| recover(&mut post)));
        if post.mem().crashed() {
            out.nested_crashes += 1;
            out.retries += 1;
            state_retries += 1;
            post.mem_mut().acknowledge_crash();
            continue;
        }
        post.clear_crash_trigger();
        match r {
            Ok(stats) => converged = Some(stats),
            Err(_) => stuck = true,
        }
        break;
    }
    if bound > 0 && state_retries == u64::from(bound) {
        out.retry_exhausted = true;
    }

    out.class = if let (false, Some(stats)) = (stuck, converged) {
        // Repair-ladder bookkeeping from the converged (final) attempt —
        // interrupted nested attempts may repair lines that the re-entry
        // then re-verifies, so only the attempt whose image survives is
        // charged, keeping counts independent of the nested draw depth.
        out.repaired_lines = stats.repaired_lines;
        out.repair_failures = stats.repair_failures;
        out.escalations = stats.escalations;
        let detected = stats.regions_inconsistent > 0 || stats.regions_quarantined > 0;
        let verdict = catch_unwind(AssertUnwindSafe(|| {
            post.drain_caches();
            verify(&post)
        }));
        let verified = matches!(verdict, Ok(true));
        if flip_line.is_some() {
            if detected {
                out.flip_detected = true;
            } else if verified {
                out.flip_benign = true;
            } else {
                out.flip_missed = true;
            }
        }
        if poison_line.is_some() {
            if stats.regions_quarantined > 0 || stats.repaired_lines > 0 {
                out.poison_detected = true;
            }
            if !post.mem().has_poisoned_lines() {
                out.poison_scrubbed = true;
            }
        }
        match verdict {
            Ok(true) => StateClass::Consistent,
            Ok(false) => StateClass::Corrupt,
            Err(_) => StateClass::Stuck,
        }
    } else {
        StateClass::Stuck
    };
    if out.class != StateClass::Stuck {
        *spare = Some(post);
    }
    out
}

/// Execute one work unit: materialize this range of the crash point's
/// census subsets from the snapshot (no replay), judge each new state,
/// replay memoized verdicts for duplicates (phase 2; parallel over
/// units).
///
/// The subsets *before* `unit.start` get a hash-only preamble pass so
/// "seen at an earlier subset of this point" — the definition of a dedup
/// hit — is a property of subset order, not of how the ranges were
/// chunked across threads. A duplicate whose first occurrence fell in an
/// earlier unit is still counted as a hit but re-judged here (its
/// verdict is identical by construction; only wall-clock is lost).
fn run_unit(
    rt: &CaseRuntime,
    budget: &Budget,
    seed: u64,
    unit: &WorkUnit,
    pool: &MachinePool,
) -> UnitResult {
    let mut out = UnitResult::default();
    let census = &rt.censuses[unit.point_idx];
    let point = rt.points[unit.point_idx];
    out.census = census.entries.len();
    let subsets = enumerate_subsets(census.entries.len(), budget.k, seed, point);
    let faults = budget.faults;
    let mut seen: HashSet<(u64, u64)> = HashSet::new();
    let mut memo: HashMap<(u64, u64), StateOutcome> = HashMap::new();
    let mut scratch = UnitScratch {
        spare: pool.take(rt.machine.cfg()),
        ..UnitScratch::default()
    };
    for (idx, sel) in subsets.iter().enumerate().take(unit.end) {
        let mut frng = state_rng(seed, unit.case, point, idx);
        let mat = materialize_state(
            census,
            sel,
            &faults,
            &rt.flip_lines,
            &rt.poison_lines,
            &mut frng,
            &mut scratch,
        );
        // The fingerprint pins the recovery-time draws; without nested
        // injection recovery consumes no randomness, so images alone
        // decide equality and dedup can actually fire.
        let fp = faults.nested.then(|| frng.fingerprint());
        let key = state_key(census, &mat, fp, &mut scratch);
        if idx < unit.start {
            seen.insert(key);
            continue;
        }
        let duplicate = !seen.insert(key);
        out.states_checked += 1;
        if faults.torn {
            out.tally.torn_states += 1;
            out.tally.torn_words_dropped += mat.torn_words_dropped;
        }
        if mat.flip_line.is_some() {
            out.tally.flips += 1;
        }
        if mat.poison_line.is_some() {
            out.tally.poisons += 1;
        }
        if mat.poison_partner.is_some() {
            out.tally.poisons += 1;
            out.tally.bursts += 1;
        }
        if duplicate {
            out.dedup_hits += 1;
        }
        let outcome = match memo.get(&key) {
            Some(o) if duplicate && budget.dedup => *o,
            _ => {
                let o = judge_state(rt, mat, &faults, &mut frng, &mut scratch.spare);
                memo.insert(key, o);
                o
            }
        };
        out.tally.flips_detected += u64::from(outcome.flip_detected);
        out.tally.flips_benign += u64::from(outcome.flip_benign);
        out.tally.flips_missed += u64::from(outcome.flip_missed);
        out.tally.poisons_detected += u64::from(outcome.poison_detected);
        out.tally.poisons_scrubbed += u64::from(outcome.poison_scrubbed);
        out.tally.nested_crashes += outcome.nested_crashes;
        out.tally.retries += outcome.retries;
        out.tally.retry_exhausted += u64::from(outcome.retry_exhausted);
        out.tally.repaired_lines += outcome.repaired_lines;
        out.tally.repair_failures += outcome.repair_failures;
        out.tally.escalations += outcome.escalations;
        match outcome.class {
            StateClass::Consistent => out.consistent += 1,
            StateClass::Corrupt => out.corrupt += 1,
            StateClass::Stuck => out.stuck += 1,
        }
        if outcome.class != StateClass::Consistent && out.examples.len() < McReport::MAX_EXAMPLES {
            out.examples.push(BadState {
                op: point,
                census: census.entries.len(),
                subset: subset_string(sel),
                class: outcome.class,
            });
        }
    }
    if let Some(spare) = scratch.spare {
        pool.give_back(spare);
    }
    out
}

/// Model-check every case under `budget` across up to `threads` host
/// threads, deriving every sampling decision from `seed`.
///
/// Reports are byte-identical at any thread count and either `--dedup`
/// setting: every stochastic draw comes from a per-state RNG stream,
/// dedup hits are defined by subset order alone, and results merge
/// strictly in `(case, point, subset range)` order — parallelism and
/// memoization change only the wall-clock.
///
/// # Panics
///
/// Panics if any crash-free reference run fails to complete and verify —
/// that means the *workload* is broken, not its recovery.
pub fn check_cases(
    cases: &[CheckCase],
    budget: &Budget,
    seed: u64,
    threads: usize,
) -> Vec<McReport> {
    // Phase 1: reference + point selection + census snapshots, parallel
    // over cases. Two forward passes per case, total — the old engine
    // ran 2 + (points × chunks) passes.
    let runtimes = par_map(threads, cases, |_, case| prepare_case(case, budget, seed));

    // Phase 2: flatten the exploration into independent (case, point,
    // subset range) units and fan them across workers with worker-local
    // accumulation. Range width adapts to the thread count so even small
    // censuses produce enough units to keep every worker busy.
    let per = subsets_per_unit(threads);
    let mut units = Vec::new();
    for (ci, rt) in runtimes.iter().enumerate() {
        for (pi, census) in rt.censuses.iter().enumerate() {
            let n = subset_count(census.entries.len(), budget.k);
            let mut start = 0;
            while start < n {
                let end = (start + per).min(n);
                units.push(WorkUnit {
                    case: ci,
                    point_idx: pi,
                    start,
                    end,
                });
                start = end;
            }
        }
    }
    let pool = MachinePool::default();
    let results = par_map(threads, &units, |_, u| {
        run_unit(&runtimes[u.case], budget, seed, u, &pool)
    });

    // Phase 3: deterministic merge, strictly in unit order.
    let mut reports: Vec<McReport> = runtimes
        .iter()
        .zip(cases)
        .map(|(rt, case)| McReport {
            case_name: case.name.clone(),
            seed,
            k: budget.k,
            mode: budget.mode_name(),
            points_total: rt.points_total,
            points: rt.points.clone(),
            max_census: 0,
            states_checked: 0,
            consistent: 0,
            corrupt: 0,
            stuck: 0,
            dedup_hits: 0,
            replay_saved_ops: rt.points.iter().sum::<u64>().saturating_sub(rt.trace_ops),
            faults: budget.faults.to_string(),
            tally: FaultTally::default(),
            examples: Vec::new(),
        })
        .collect();
    for (u, r) in units.iter().zip(results) {
        let rep = &mut reports[u.case];
        rep.max_census = rep.max_census.max(r.census);
        rep.states_checked += r.states_checked;
        rep.consistent += r.consistent;
        rep.corrupt += r.corrupt;
        rep.stuck += r.stuck;
        rep.dedup_hits += r.dedup_hits;
        rep.tally.merge(&r.tally);
        for ex in r.examples {
            if rep.examples.len() < McReport::MAX_EXAMPLES {
                rep.examples.push(ex);
            }
        }
    }
    reports
}

/// Model-check one case under `budget` on the calling thread, deriving
/// every sampling decision from `seed`.
///
/// # Panics
///
/// Panics if the crash-free reference run fails to complete and verify —
/// that means the *workload* is broken, not its recovery.
pub fn check_case(case: &CheckCase, budget: &Budget, seed: u64) -> McReport {
    check_cases(std::slice::from_ref(case), budget, seed, 1)
        .pop()
        .expect("one case in, one report out")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_sim::memsys::{CensusEntry, CensusOrigin};

    #[test]
    fn subset_enumeration_is_exhaustive_within_k() {
        let subs = enumerate_subsets(3, 4, 1, 1);
        assert_eq!(subs.len(), 8);
        assert_eq!(subset_count(3, 4), 8);
        let distinct: std::collections::BTreeSet<_> = subs.iter().cloned().collect();
        assert_eq!(distinct.len(), 8);
    }

    #[test]
    fn subset_sampling_is_seeded_and_anchored() {
        let a = enumerate_subsets(10, 3, 7, 42);
        let b = enumerate_subsets(10, 3, 7, 42);
        assert_eq!(a, b, "same (seed, point) must sample the same subsets");
        assert_eq!(a.len(), 8);
        assert_eq!(subset_count(10, 3), 8);
        assert!(a.contains(&vec![false; 10]), "empty subset always present");
        assert!(a.contains(&vec![true; 10]), "full subset always present");
        let c = enumerate_subsets(10, 3, 7, 43);
        assert_ne!(a, c, "a different crash point samples differently");
    }

    #[test]
    fn point_selection_keeps_endpoints_and_is_deterministic() {
        let cands: Vec<u64> = (1..=100).collect();
        let budget = Budget {
            mode: BudgetMode::Sampled(10),
            k: 4,
            faults: FaultConfig::none(),
            dedup: true,
        };
        let a = select_points(&cands, &budget, 5);
        let b = select_points(&cands, &budget, 5);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        assert_eq!(a[0], 1);
        assert_eq!(*a.last().unwrap(), 100);
        let c = select_points(&cands, &budget, 6);
        assert_ne!(a, c, "seed changes the interior sample");
        let exhaustive = select_points(
            &cands,
            &Budget {
                mode: BudgetMode::Exhaustive,
                k: 4,
                faults: FaultConfig::none(),
                dedup: true,
            },
            5,
        );
        assert_eq!(exhaustive, cands);
    }

    #[test]
    fn unit_width_adapts_to_threads() {
        assert_eq!(subsets_per_unit(1), 64);
        assert_eq!(subsets_per_unit(2), 32);
        assert_eq!(subsets_per_unit(4), 16);
        assert_eq!(subsets_per_unit(8), 8);
        assert_eq!(subsets_per_unit(64), 8, "floor keeps preambles cheap");
        // A k=4 census (16 subsets) now yields 2 units on an 8-thread
        // host instead of 1 — the fix for the starved kernel matrix.
        assert_eq!(16usize.div_ceil(subsets_per_unit(8)), 2);
    }

    #[test]
    fn sampled_reports_are_deterministic_per_seed() {
        let case = crate::rigs::lp_skip_fold().case;
        let budget = Budget {
            mode: BudgetMode::Sampled(6),
            k: 3,
            faults: FaultConfig::none(),
            dedup: true,
        };
        let a = check_case(&case, &budget, 9);
        let b = check_case(&case, &budget, 9);
        assert_eq!(a.points, b.points);
        assert_eq!(
            (a.states_checked, a.consistent, a.corrupt, a.stuck),
            (b.states_checked, b.consistent, b.corrupt, b.stuck),
        );
        let c = check_case(&case, &budget, 10);
        assert_eq!(
            c.points.first(),
            a.points.first(),
            "the first crash point is always visited"
        );
    }

    /// A synthetic one-point runtime whose census holds two entries with
    /// identical line and data, so three of the four subsets materialize
    /// the very same image.
    fn synthetic_runtime() -> CaseRuntime {
        let machine = Machine::new(MachineConfig::default().with_nvmm_bytes(1 << 16));
        let base = machine.nvmm_fork();
        let mut data = [0u8; LINE_BYTES];
        data[0] = 7;
        let entry = CensusEntry {
            line: LineAddr(1),
            data,
            origin: CensusOrigin::DirtyL2,
        };
        CaseRuntime {
            machine,
            recover: Box::new(|_| RecoveryStats::default()),
            verify: Box::new(|_| true),
            flip_lines: Vec::new(),
            poison_lines: Vec::new(),
            points_total: 1,
            points: vec![5],
            censuses: vec![CrashCensus {
                base,
                entries: vec![entry.clone(), entry],
            }],
            trace_ops: 10,
        }
    }

    #[test]
    fn dedup_counts_duplicate_images_and_keeps_reports_identical() {
        let rt = synthetic_runtime();
        let budget = Budget {
            mode: BudgetMode::Exhaustive,
            k: 4,
            faults: FaultConfig::none(),
            dedup: true,
        };
        let unit = WorkUnit {
            case: 0,
            point_idx: 0,
            start: 0,
            end: 4,
        };
        let on = run_unit(&rt, &budget, 1, &unit, &MachinePool::default());
        assert_eq!(on.states_checked, 4, "duplicates still count");
        assert_eq!(
            on.dedup_hits, 2,
            "{{e0}}, {{e1}}, {{e0,e1}} share one image"
        );
        let off = run_unit(
            &rt,
            &Budget {
                dedup: false,
                ..budget
            },
            1,
            &unit,
            &MachinePool::default(),
        );
        assert_eq!(off.states_checked, on.states_checked);
        assert_eq!(
            off.dedup_hits, on.dedup_hits,
            "the flag never changes counts"
        );
        assert_eq!(off.consistent, on.consistent);
    }

    #[test]
    fn chunked_units_agree_with_one_unit() {
        let rt = synthetic_runtime();
        let budget = Budget {
            mode: BudgetMode::Exhaustive,
            k: 4,
            faults: FaultConfig::none(),
            dedup: true,
        };
        let unit = |start, end| WorkUnit {
            case: 0,
            point_idx: 0,
            start,
            end,
        };
        let whole = run_unit(&rt, &budget, 1, &unit(0, 4), &MachinePool::default());
        let a = run_unit(&rt, &budget, 1, &unit(0, 2), &MachinePool::default());
        let b = run_unit(&rt, &budget, 1, &unit(2, 4), &MachinePool::default());
        assert_eq!(whole.states_checked, a.states_checked + b.states_checked);
        assert_eq!(
            whole.dedup_hits,
            a.dedup_hits + b.dedup_hits,
            "hit counting must not depend on the chunk partition"
        );
        assert_eq!(whole.consistent, a.consistent + b.consistent);
    }

    #[test]
    fn dedup_never_caches_across_differing_fault_draws() {
        let rt = synthetic_runtime();
        let budget = Budget {
            mode: BudgetMode::Exhaustive,
            k: 4,
            faults: FaultConfig {
                nested: true,
                nested_bound: 1,
                ..FaultConfig::none()
            },
            dedup: true,
        };
        let unit = WorkUnit {
            case: 0,
            point_idx: 0,
            start: 0,
            end: 4,
        };
        let r = run_unit(&rt, &budget, 1, &unit, &MachinePool::default());
        assert_eq!(r.states_checked, 4);
        assert_eq!(
            r.dedup_hits, 0,
            "identical images with distinct fault-RNG streams never share a key"
        );
    }
}
