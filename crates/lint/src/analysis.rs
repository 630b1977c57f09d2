//! The persist-order and write-efficiency dataflow engine.
//!
//! Each function body is lowered to a control-flow graph ([`crate::cfg`])
//! and solved to a fixpoint over an abstract state with two polarities:
//!
//! * **may** facts (union at joins): pending durability obligations —
//!   stores not yet flushed, flushed but not yet fenced, not yet folded
//!   into a running checksum, WAL append/fence ordering, region balance.
//!   These drive the safety rules S1–S6: a store pending on *any* path is
//!   pending at the merge.
//! * **must** facts (intersection at joins): lines known to be clean —
//!   flush expressions already issued with no intervening store on any
//!   path, and fence cleanliness. These drive the write-efficiency rules
//!   W1–W3: a redundancy is only flagged when it holds on *every* path.
//!
//! Loop heads widen the must facts: a flush born inside the loop body is
//! iteration-dependent (its index changes), so it is dropped at the back
//! edge join rather than falsely proving the next iteration redundant.
//!
//! Per-function summaries make obligations flow through helper calls:
//! a call to a function that leaves stores unflushed imports those
//! obligations at the call site, while a call to a summarized pure helper
//! no longer destroys must facts the way an unknown call must.
//!
//! The solver runs in two phases — fixpoint first (no emission), then a
//! single emission pass over the converged block-entry states — so a
//! block revisited by the worklist never double-reports.

use std::collections::{BTreeMap, VecDeque};

use crate::cfg::Cfg;
use crate::config::{FnContext, LintConfig};
use crate::lexer::Directive;
use crate::parser::{parse_file, FnItem, Node, ParsedFile, RawCall};
use crate::report::{LintFinding, LintReport, SRule};

/// Classified persistency-API call.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Kind {
    /// Raw persistent data store: creates flush/fence/fold obligations.
    DataStore(String),
    /// Scheme-managed store (`tp.store`, `sink.store`): durability is the
    /// scheme's job, but the call must sit inside a region (S5).
    RegionStore,
    /// Lazy checksum-table publish (`table.store`).
    TablePublish,
    /// Eager checksum-table publish (`table.persist`).
    TablePersist,
    /// Durable progress-marker store.
    MarkerPublish,
    /// WAL undo-log append (`entries` store, `log_and_stage`).
    LogAppend,
    /// WAL arena header store (status/count/marker line).
    StatusPublish,
    /// Parity-arena publish (`parity.store_lanes`, or a store whose
    /// target is a parity arena).
    ParityPublish,
    /// Flush of one target (`clflushopt`, `flush_range`, `flush_rows`),
    /// or of everything when the target could not be resolved.
    Flush(Option<String>),
    /// Store fence.
    Fence,
    /// Flush-everything-and-fence (`committer.commit`, `sink.commit`,
    /// `tx.commit`).
    Barrier,
    /// Fold into a running checksum (`ck.update`).
    Fold,
    /// Region open.
    RegionBegin,
    /// Region close (`tp.commit` / `tp.abort`).
    RegionEnd,
    /// Already-durable helper (`persist_store`: store+flush+fence).
    DurableStore,
    /// `persist_range(ctx, arr, ..)`: flush target + fence.
    PersistRange(Option<String>),
    /// Anything else.
    Other,
}

/// Classify a call site using the name-allowlist config.
fn classify(call: &RawCall, cfg: &LintConfig, is_wal_file: bool) -> Kind {
    let recv = call.receiver.as_str();
    let recv_is_ctx = recv.is_empty() || recv.rsplit('.').next() == Some("ctx");
    // Target of a store/flush: explicit argument for ctx methods, the
    // receiver itself for container methods (`m.store(ctx, ..)`).
    let arg_target = |arg: &str| -> String {
        let t = cfg.strip_accessors(arg);
        if t.rsplit('.').next() == Some("ctx") {
            String::new()
        } else {
            t.to_string()
        }
    };
    match call.name.as_str() {
        "store" => {
            if cfg.is_region_receiver(recv) || cfg.is_sink_receiver(recv) {
                return Kind::RegionStore;
            }
            if cfg.is_table(recv) {
                return Kind::TablePublish;
            }
            let target = if recv_is_ctx {
                arg_target(&call.arg0)
            } else {
                arg_target(recv)
            };
            if cfg.is_table(&target) {
                Kind::TablePublish
            } else if cfg.is_parity(&target) {
                Kind::ParityPublish
            } else if cfg.is_marker(&target) {
                Kind::MarkerPublish
            } else if cfg.is_log(&target, is_wal_file) {
                Kind::LogAppend
            } else if cfg.is_log_header(&target, is_wal_file) {
                Kind::StatusPublish
            } else if target.is_empty() {
                Kind::DataStore("<expr>".into())
            } else {
                Kind::DataStore(target)
            }
        }
        "store_addr" => {
            let target = arg_target(&call.arg0);
            if cfg.is_log(&target, is_wal_file) {
                Kind::LogAppend
            } else if target.is_empty() {
                Kind::DataStore("<expr>".into())
            } else {
                Kind::DataStore(target)
            }
        }
        "log_and_stage" => Kind::LogAppend,
        "store_lanes" => Kind::ParityPublish,
        "clflushopt" | "clwb" | "flush_range" => {
            let t = arg_target(&call.arg0);
            Kind::Flush((!t.is_empty()).then_some(t))
        }
        "flush_rows" | "flush_all" => {
            // Container method: the receiver is the flushed array.
            let t = arg_target(recv);
            Kind::Flush((!t.is_empty()).then_some(t))
        }
        "sfence" => Kind::Fence,
        "persist_store" => Kind::DurableStore,
        "persist_range" => {
            let t = arg_target(&call.arg1);
            Kind::PersistRange((!t.is_empty()).then_some(t))
        }
        "persist" if cfg.is_table(recv) => Kind::TablePersist,
        "update" if cfg.is_fold_receiver(recv) => Kind::Fold,
        "begin" if cfg.is_region_receiver(recv) => Kind::RegionBegin,
        "region_begin" => Kind::RegionBegin,
        "commit" | "abort" if cfg.is_region_receiver(recv) => Kind::RegionEnd,
        "region_commit" | "region_end" => Kind::RegionEnd,
        "commit" => Kind::Barrier,
        _ => Kind::Other,
    }
}

/// Whether a flush-family call flushes a whole range (vs one element),
/// and the expression key identifying exactly which line(s) it flushes.
fn flush_key(call: &RawCall) -> (String, bool) {
    match call.name.as_str() {
        "flush_range" => (format!("r:{}", call.args_full), true),
        "flush_rows" | "flush_all" => (format!("r:{}:{}", call.receiver, call.args_full), true),
        "persist_range" => (format!("r:p:{}", call.args_full), true),
        _ => (format!("e:{}", call.args_full), false),
    }
}

/// A must-fact: this flush expression was issued and no store has touched
/// its line(s) since, on any path.
#[derive(Debug, Clone, PartialEq)]
struct FlushFact {
    /// Line of the flush that made the line(s) clean.
    line: u32,
    /// Stripped base path of the flushed array (empty when unresolved).
    base: String,
    /// Whether the flush covered a range rather than one element.
    range: bool,
}

/// Abstract state at one program point.
#[derive(Debug, Clone, Default, PartialEq)]
struct AbsState {
    /// Open region nesting depth with the begin lines.
    begins: Vec<u32>,
    /// May: stored but not yet flushed: target → first store line.
    unflushed: BTreeMap<String, u32>,
    /// May: flushed but not yet fenced: target → first store line.
    unfenced: BTreeMap<String, u32>,
    /// May: stored but not yet folded into a checksum: target → line.
    unfolded: BTreeMap<String, u32>,
    /// Must: flush expression key → clean-line fact (W1/W3).
    flushed: BTreeMap<String, FlushFact>,
    /// Must: line of the last fence, with no store/flush since (W2).
    fence_clean: Option<u32>,
    /// WAL appends seen on this path (capped for convergence).
    appends: u32,
    /// Some append has been covered by a fence on this path.
    log_fenced: bool,
    /// Line of a recovery progress-marker publish on this path (S4:
    /// repairs must precede it, so a later repair store is a violation).
    marker_line: Option<u32>,
    /// Line of a forward-path parity publish on this path (S7: the
    /// parity line summarizes the region's data, so a later protected
    /// store in the same region is a violation).
    parity_line: Option<u32>,
}

impl AbsState {
    fn pending_durability(&self) -> Vec<(&String, &u32, &'static str)> {
        let mut v: Vec<_> = self
            .unflushed
            .iter()
            .map(|(t, l)| (t, l, "unflushed"))
            .collect();
        v.extend(self.unfenced.iter().map(|(t, l)| (t, l, "unfenced")));
        v.sort_by_key(|(_, l, _)| **l);
        v
    }

    /// Drop must-facts that were touched by a store to `target`
    /// (`<expr>`/empty targets conservatively kill everything; facts with
    /// an unresolved base die on any store).
    fn kill_flushed(&mut self, target: &str) {
        if target.is_empty() || target == "<expr>" {
            self.flushed.clear();
            return;
        }
        self.flushed
            .retain(|_, f| !f.base.is_empty() && f.base != target);
    }
}

/// Join two states at a merge point: union for may facts, intersection
/// for must facts. A mismatch in region depth is an S5 violation recorded
/// separately by the emission pass.
fn join(mut a: AbsState, b: &AbsState) -> AbsState {
    for (t, l) in &b.unflushed {
        let e = a.unflushed.entry(t.clone()).or_insert(*l);
        *e = (*e).min(*l);
    }
    for (t, l) in &b.unfenced {
        // A target unflushed on one path and unfenced on the other is
        // kept at the stronger (unflushed) obligation.
        if !a.unflushed.contains_key(t) {
            let e = a.unfenced.entry(t.clone()).or_insert(*l);
            *e = (*e).min(*l);
        }
    }
    for (t, l) in &b.unfolded {
        let e = a.unfolded.entry(t.clone()).or_insert(*l);
        *e = (*e).min(*l);
    }
    let mut flushed = BTreeMap::new();
    for (k, fa) in &a.flushed {
        if let Some(fb) = b.flushed.get(k) {
            let mut f = fa.clone();
            f.line = f.line.min(fb.line);
            flushed.insert(k.clone(), f);
        }
    }
    a.flushed = flushed;
    a.fence_clean = match (a.fence_clean, b.fence_clean) {
        (Some(x), Some(y)) => Some(x.min(y)),
        _ => None,
    };
    a.appends = a.appends.max(b.appends);
    a.log_fenced = a.log_fenced && b.log_fenced;
    a.marker_line = match (a.marker_line, b.marker_line) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, y) => x.or(y),
    };
    a.parity_line = match (a.parity_line, b.parity_line) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, y) => x.or(y),
    };
    if b.begins.len() > a.begins.len() {
        a.begins = b.begins.clone();
    }
    a
}

/// Widen a back-edge contribution at a loop head: must facts born inside
/// the loop body are iteration-dependent (the flushed index changes), so
/// they cannot prove the next iteration's flush redundant.
fn widen(st: &mut AbsState, span: (u32, u32)) {
    st.flushed.retain(|_, f| f.line < span.0 || f.line > span.1);
    if st.fence_clean.is_some_and(|l| l >= span.0 && l <= span.1) {
        st.fence_clean = None;
    }
}

/// Per-function facts gathered in a syntactic prepass.
#[derive(Debug, Default, Clone, Copy)]
struct FnFacts {
    has_append: bool,
    has_begin: bool,
    has_fold: bool,
}

fn gather_facts(nodes: &[Node], cfg: &LintConfig, is_wal_file: bool, facts: &mut FnFacts) {
    for n in nodes {
        match n {
            Node::Call(c) => match classify(c, cfg, is_wal_file) {
                Kind::LogAppend => facts.has_append = true,
                Kind::RegionBegin => facts.has_begin = true,
                Kind::Fold => facts.has_fold = true,
                _ => {}
            },
            Node::Branch(arms) => {
                for a in arms {
                    gather_facts(a, cfg, is_wal_file, facts);
                }
            }
            Node::Loop(body) => gather_facts(body, cfg, is_wal_file, facts),
            Node::Diverge => {}
        }
    }
}

/// What one function does to persistent state, for interprocedural use.
#[derive(Debug, Clone, Default)]
pub(crate) struct FnSummary {
    /// The function performs some persistent store.
    pub(crate) does_store: bool,
    /// The function publishes (table/marker/status store or region end).
    pub(crate) publishes: bool,
    /// Obligations left unflushed at the function's normal exit.
    pub(crate) residual_unflushed: Vec<(String, u32)>,
    /// Obligations flushed but not fenced at the function's normal exit.
    pub(crate) residual_unfenced: Vec<(String, u32)>,
}

/// Function summaries keyed by qualified name (`EagerOnlySink::commit`)
/// or bare name for free functions.
pub(crate) type Summaries = BTreeMap<String, FnSummary>;

fn summary_flags(nodes: &[Node], cfg: &LintConfig, is_wal: bool, s: &mut FnSummary) {
    for n in nodes {
        match n {
            Node::Call(c) => match classify(c, cfg, is_wal) {
                Kind::DataStore(_) | Kind::RegionStore | Kind::LogAppend | Kind::DurableStore => {
                    s.does_store = true;
                }
                Kind::TablePublish
                | Kind::TablePersist
                | Kind::MarkerPublish
                | Kind::StatusPublish
                | Kind::ParityPublish
                | Kind::RegionEnd => {
                    s.does_store = true;
                    s.publishes = true;
                }
                _ => {}
            },
            Node::Branch(arms) => {
                for a in arms {
                    summary_flags(a, cfg, is_wal, s);
                }
            }
            Node::Loop(body) => summary_flags(body, cfg, is_wal, s),
            Node::Diverge => {}
        }
    }
}

/// Whether `f` is WAL code — in a WAL-flavored file or under a
/// `context(wal)` directive — the evidence `log`/`header` targets need to
/// classify as the undo log.
fn is_wal(parsed: &ParsedFile, f: &FnItem) -> bool {
    parsed.is_wal || f.context == FnContext::Wal
}

/// Compute summaries for every function in a parsed file. Summaries are
/// depth-0: each body is solved with an *empty* summary table, so helper
/// chains degrade to the conservative unknown-call treatment rather than
/// requiring a call-graph SCC pass.
pub(crate) fn summarize_file(parsed: &ParsedFile, cfg: &LintConfig) -> Summaries {
    let empty = Summaries::new();
    let mut out = Summaries::new();
    for f in &parsed.fns {
        if f.context == FnContext::Ignore {
            continue;
        }
        let is_wal = is_wal(parsed, f);
        let mut s = FnSummary::default();
        summary_flags(&f.body, cfg, is_wal, &mut s);
        let mut facts = FnFacts::default();
        gather_facts(&f.body, cfg, is_wal, &mut facts);
        let mut sink = Vec::new();
        let mut ev = Eval {
            cfg,
            file: "",
            function: &f.name,
            context: f.context,
            is_wal_file: is_wal,
            facts,
            impl_ty: f.name.split_once("::").map(|(t, _)| t.to_string()),
            bindings: &f.bindings,
            summaries: &empty,
            emit_on: false,
            findings: &mut sink,
        };
        let graph = Cfg::build(&f.body);
        let (_, outs) = ev.solve(&graph);
        if let Some(exit) = &outs[graph.exit] {
            s.residual_unflushed = exit
                .unflushed
                .iter()
                .map(|(t, l)| (t.clone(), *l))
                .collect();
            s.residual_unfenced = exit.unfenced.iter().map(|(t, l)| (t.clone(), *l)).collect();
        }
        out.insert(f.name.clone(), s);
    }
    out
}

/// Evaluation harness for one function.
struct Eval<'a> {
    cfg: &'a LintConfig,
    file: &'a str,
    function: &'a str,
    context: FnContext,
    is_wal_file: bool,
    facts: FnFacts,
    /// Impl type of the current function (`Tmm` for `Tmm::run`).
    impl_ty: Option<String>,
    /// `let var = Type…` bindings from the function body.
    bindings: &'a [(String, String)],
    summaries: &'a Summaries,
    /// Findings are recorded only during the emission phase.
    emit_on: bool,
    findings: &'a mut Vec<LintFinding>,
}

impl<'a> Eval<'a> {
    fn emit(&mut self, rule: SRule, line: u32, detail: String) {
        if !self.emit_on {
            return;
        }
        self.findings.push(LintFinding {
            rule,
            file: self.file.to_string(),
            line,
            function: self.function.to_string(),
            detail,
        });
    }

    /// Resolve a call to a summarized function: free calls by bare name,
    /// `self.m(..)` through the impl type, `var.m(..)` through a
    /// `let var = Type…` binding.
    fn resolve(&self, call: &RawCall) -> Option<&'a FnSummary> {
        let recv = call.receiver.as_str();
        let key = if recv.is_empty() {
            call.name.clone()
        } else if recv == "self" {
            format!("{}::{}", self.impl_ty.as_deref()?, call.name)
        } else if !recv.contains('.') {
            let ty = &self.bindings.iter().rev().find(|(v, _)| v == recv)?.1;
            format!("{ty}::{}", call.name)
        } else {
            return None;
        };
        self.summaries.get(&key)
    }

    /// Report pending durability obligations at a publish point.
    fn check_publish(&mut self, rule: SRule, what: &str, line: u32, st: &AbsState) {
        let pending = st.pending_durability();
        if pending.is_empty() {
            return;
        }
        let list: Vec<String> = pending
            .iter()
            .take(3)
            .map(|(t, l, how)| format!("`{t}` stored at line {l} still {how}"))
            .collect();
        self.emit(
            rule,
            line,
            format!(
                "{what} while {} store(s) lack flush+sfence: {}",
                pending.len(),
                list.join("; ")
            ),
        );
    }

    /// Transfer function: one call against the abstract state.
    fn apply(&mut self, call: &RawCall, st: &mut AbsState) {
        if self.cfg.accessor_suffixes.iter().any(|a| a == &call.name) {
            return; // pure accessor (`arr.addr(i)`) nested in another call
        }
        let kind = classify(call, self.cfg, self.is_wal_file);
        let line = call.line;
        match kind {
            Kind::DataStore(target) => {
                if self.facts.has_append && !st.log_fenced {
                    self.emit(
                        SRule::S3OverwriteBeforeLogFence,
                        line,
                        format!(
                            "in-place store to `{target}` before the undo log is appended and fenced"
                        ),
                    );
                }
                if self.facts.has_begin && st.begins.is_empty() {
                    self.emit(
                        SRule::S5UnbalancedRegion,
                        line,
                        format!(
                            "store to `{target}` outside any open region (no checksum covers it)"
                        ),
                    );
                }
                if self.context == FnContext::Recovery {
                    if let Some(ml) = st.marker_line {
                        self.emit(
                            SRule::S4MarkerBeforeRepairFence,
                            ml,
                            format!(
                                "recovery marker published before the repair store to `{target}` at line {line}"
                            ),
                        );
                    }
                }
                if let Some(pl) = st.parity_line {
                    self.emit(
                        SRule::S7ParityBeforeData,
                        pl,
                        format!(
                            "parity line published before the protected store to `{target}` at line {line} it summarizes"
                        ),
                    );
                }
                st.unfenced.remove(&target);
                st.unflushed.entry(target.clone()).or_insert(line);
                st.unfolded.entry(target.clone()).or_insert(line);
                st.kill_flushed(&target);
                st.fence_clean = None;
            }
            Kind::RegionStore => {
                if self.facts.has_begin && st.begins.is_empty() {
                    self.emit(
                        SRule::S5UnbalancedRegion,
                        line,
                        "scheme store outside any open region (begin/commit do not cover it)"
                            .to_string(),
                    );
                }
                if let Some(pl) = st.parity_line {
                    self.emit(
                        SRule::S7ParityBeforeData,
                        pl,
                        format!("parity line published before the scheme store at line {line}"),
                    );
                }
                // Scheme-managed store to an array we cannot name.
                st.flushed.clear();
                st.fence_clean = None;
            }
            Kind::TablePublish | Kind::TablePersist => {
                match self.context {
                    FnContext::Recovery => {
                        self.check_publish(
                            SRule::S4MarkerBeforeRepairFence,
                            "recovery progress published to checksum table",
                            line,
                            st,
                        );
                    }
                    _ => {
                        if let Some((t, l)) = st.unfolded.iter().next() {
                            let n = st.unfolded.len();
                            self.emit(
                                SRule::S2PublishBeforeCover,
                                line,
                                format!(
                                    "checksum published while {n} store(s) were never folded into it (first: `{t}` at line {l})"
                                ),
                            );
                        }
                    }
                }
                st.fence_clean = None;
            }
            Kind::MarkerPublish => {
                match self.context {
                    FnContext::Recovery => {
                        self.check_publish(
                            SRule::S4MarkerBeforeRepairFence,
                            "recovery marker stored",
                            line,
                            st,
                        );
                        if st.marker_line.is_none() {
                            st.marker_line = Some(line);
                        }
                    }
                    _ => {
                        self.check_publish(
                            SRule::S1StoreNotCovered,
                            "progress marker stored",
                            line,
                            st,
                        );
                    }
                }
                st.flushed.retain(|_, f| !self.cfg.is_marker(&f.base));
                st.fence_clean = None;
            }
            Kind::StatusPublish => {
                if self.context == FnContext::Recovery {
                    self.check_publish(
                        SRule::S4MarkerBeforeRepairFence,
                        "WAL status/marker line stored in recovery",
                        line,
                        st,
                    );
                }
                st.flushed
                    .retain(|_, f| !self.cfg.is_log_header(&f.base, self.is_wal_file));
                st.fence_clean = None;
            }
            Kind::LogAppend => {
                st.appends = st.appends.saturating_add(1).min(8);
                st.flushed
                    .retain(|_, f| !self.cfg.is_log(&f.base, self.is_wal_file));
                st.fence_clean = None;
            }
            Kind::ParityPublish => {
                if self.context == FnContext::Recovery {
                    // Recovery re-publish: the parity vouches for the
                    // repaired lines, so they must be flushed and fenced
                    // first (the recovery half of dynamic R8).
                    self.check_publish(
                        SRule::S7ParityBeforeData,
                        "parity line published in recovery",
                        line,
                        st,
                    );
                } else if st.parity_line.is_none() {
                    st.parity_line = Some(line);
                }
                st.flushed.retain(|_, f| !self.cfg.is_parity(&f.base));
                st.fence_clean = None;
            }
            Kind::Flush(target) => {
                let (key, range) = flush_key(call);
                let base = target.clone().unwrap_or_default();
                if !range && !base.is_empty() {
                    if let Some(prev) = st.flushed.values().find(|f| f.range && f.base == base) {
                        self.emit(
                            SRule::W3ShadowedFlush,
                            line,
                            format!(
                                "element flush of `{base}` already covered by the range flush at line {}",
                                prev.line
                            ),
                        );
                    }
                }
                if let Some(prev) = st.flushed.get(&key) {
                    let what = if base.is_empty() {
                        "this line"
                    } else {
                        base.as_str()
                    };
                    self.emit(
                        SRule::W1RedundantFlush,
                        line,
                        format!(
                            "`{what}` flushed again with no intervening store on any path (already clean since the flush at line {})",
                            prev.line
                        ),
                    );
                } else {
                    st.flushed.insert(key, FlushFact { line, base, range });
                }
                match target {
                    Some(t) => {
                        if let Some(l) = st.unflushed.remove(&t) {
                            st.unfenced.entry(t).or_insert(l);
                        }
                    }
                    None => {
                        let moved: Vec<(String, u32)> =
                            std::mem::take(&mut st.unflushed).into_iter().collect();
                        for (t, l) in moved {
                            st.unfenced.entry(t).or_insert(l);
                        }
                    }
                }
                st.fence_clean = None;
            }
            Kind::Fence => {
                if let Some(prev) = st.fence_clean {
                    self.emit(
                        SRule::W2RedundantFence,
                        line,
                        format!(
                            "no store or flush can reach this fence on any path since the fence at line {prev}"
                        ),
                    );
                }
                st.unfenced.clear();
                if st.appends > 0 {
                    st.log_fenced = true;
                }
                st.fence_clean = Some(line);
            }
            Kind::Barrier => {
                st.unflushed.clear();
                st.unfenced.clear();
                if st.appends > 0 {
                    st.log_fenced = true;
                }
                st.fence_clean = Some(line);
            }
            Kind::Fold => st.unfolded.clear(),
            Kind::RegionBegin => {
                st.begins.push(line);
                st.unfolded.clear();
                st.parity_line = None;
                st.fence_clean = None;
            }
            Kind::RegionEnd => {
                if st.begins.pop().is_none() {
                    self.emit(
                        SRule::S5UnbalancedRegion,
                        line,
                        "region commit/abort without a matching begin on this path".to_string(),
                    );
                }
                if self.context == FnContext::Forward && self.facts.has_fold {
                    if let Some((t, l)) = st.unfolded.iter().next() {
                        let n = st.unfolded.len();
                        self.emit(
                            SRule::S6UncoveredData,
                            line,
                            format!(
                                "region committed while {n} persisted store(s) were never folded into a checksum (first: `{t}` at line {l})"
                            ),
                        );
                    }
                }
                st.unfolded.clear();
                st.parity_line = None;
                st.fence_clean = None;
            }
            Kind::DurableStore => {
                let a0 = self.cfg.strip_accessors(&call.arg0).to_string();
                let a1 = self.cfg.strip_accessors(&call.arg1).to_string();
                st.flushed
                    .retain(|_, f| !f.base.is_empty() && f.base != a0 && f.base != a1);
                st.fence_clean = Some(line);
            }
            Kind::PersistRange(target) => {
                let (key, range) = flush_key(call);
                let base = target.clone().unwrap_or_default();
                if let Some(prev) = st.flushed.get(&key) {
                    let what = if base.is_empty() {
                        "this range"
                    } else {
                        base.as_str()
                    };
                    self.emit(
                        SRule::W1RedundantFlush,
                        line,
                        format!(
                            "`{what}` flushed again with no intervening store on any path (already clean since the flush at line {})",
                            prev.line
                        ),
                    );
                } else {
                    st.flushed.insert(key, FlushFact { line, base, range });
                }
                match target {
                    Some(t) => {
                        if let Some(l) = st.unflushed.remove(&t) {
                            st.unfenced.entry(t).or_insert(l);
                        }
                    }
                    None => {
                        let moved: Vec<(String, u32)> =
                            std::mem::take(&mut st.unflushed).into_iter().collect();
                        for (t, l) in moved {
                            st.unfenced.entry(t).or_insert(l);
                        }
                    }
                }
                st.unfenced.clear();
                if st.appends > 0 {
                    st.log_fenced = true;
                }
                st.fence_clean = Some(line);
            }
            Kind::Other => {
                if let Some(s) = self.resolve(call) {
                    if s.does_store {
                        st.flushed.clear();
                        st.fence_clean = None;
                    }
                    for (t, _) in &s.residual_unflushed {
                        st.unfenced.remove(t);
                        st.unflushed.entry(t.clone()).or_insert(line);
                    }
                    for (t, _) in &s.residual_unfenced {
                        if !st.unflushed.contains_key(t) {
                            st.unfenced.entry(t.clone()).or_insert(line);
                        }
                    }
                } else {
                    // Unknown call: it may store through any argument.
                    let a0 = self.cfg.strip_accessors(&call.arg0).to_string();
                    let a1 = self.cfg.strip_accessors(&call.arg1).to_string();
                    st.flushed
                        .retain(|_, f| !f.base.is_empty() && f.base != a0 && f.base != a1);
                    st.fence_clean = None;
                }
            }
        }
    }

    /// Phase 1: worklist fixpoint over the CFG. Returns converged
    /// block-entry and block-exit states (`None` = unreachable).
    #[allow(clippy::type_complexity)]
    fn solve(&mut self, g: &Cfg) -> (Vec<Option<AbsState>>, Vec<Option<AbsState>>) {
        let n = g.blocks.len();
        let mut ins: Vec<Option<AbsState>> = vec![None; n];
        let mut outs: Vec<Option<AbsState>> = vec![None; n];
        let mut queued = vec![false; n];
        let mut work: VecDeque<usize> = VecDeque::new();
        work.push_back(g.entry);
        queued[g.entry] = true;
        let mut steps = 0usize;
        while let Some(b) = work.pop_front() {
            queued[b] = false;
            steps += 1;
            if steps > 64 * (n + 1) {
                break; // safety valve; the lattice is height-bounded
            }
            let span = g.blocks[b].loop_head.as_ref().map(|h| h.span);
            let mut acc: Option<AbsState> = (b == g.entry).then(AbsState::default);
            for &p in &g.blocks[b].preds {
                let Some(po) = &outs[p] else { continue };
                let mut contrib = po.clone();
                if g.is_back_edge(p, b) {
                    if let Some(span) = span {
                        widen(&mut contrib, span);
                    }
                    // A loop that changes region depth would grow `begins`
                    // forever; pin it to the head's depth and report the
                    // imbalance in the emission pass.
                    if let Some(a) = &acc {
                        if contrib.begins.len() != a.begins.len() {
                            contrib.begins = a.begins.clone();
                        }
                    }
                }
                acc = Some(match acc {
                    None => contrib,
                    Some(a) => join(a, &contrib),
                });
            }
            let Some(inb) = acc else { continue };
            if ins[b].as_ref() == Some(&inb) && outs[b].is_some() {
                continue;
            }
            let mut st = inb.clone();
            for c in &g.blocks[b].stmts {
                self.apply(c, &mut st);
            }
            ins[b] = Some(inb);
            let changed = outs[b].as_ref() != Some(&st);
            outs[b] = Some(st);
            if changed {
                for &s in &g.blocks[b].succs {
                    if !queued[s] {
                        queued[s] = true;
                        work.push_back(s);
                    }
                }
            }
        }
        (ins, outs)
    }

    /// Phase 2: emission over the converged states, plus the structural
    /// S5 checks (branch-join imbalance, loop-head imbalance, open region
    /// at exit).
    fn run(&mut self, f: &FnItem) {
        let g = Cfg::build(&f.body);
        self.emit_on = false;
        let (ins, outs) = self.solve(&g);
        self.emit_on = true;
        for (b, blk) in g.blocks.iter().enumerate() {
            if b == g.dexit {
                continue; // early-exit paths are not checked at their sink
            }
            // Branch-join imbalance: forward preds disagree on depth.
            let fwd: Vec<&AbsState> = blk
                .preds
                .iter()
                .filter(|&&p| !g.is_back_edge(p, b))
                .filter_map(|&p| outs[p].as_ref())
                .collect();
            if fwd.len() >= 2 {
                let d0 = fwd[0].begins.len();
                if fwd.iter().any(|s| s.begins.len() != d0) {
                    let deepest = fwd.iter().max_by_key(|s| s.begins.len()).unwrap();
                    let line = *deepest.begins.last().unwrap_or(&0);
                    self.emit(
                        SRule::S5UnbalancedRegion,
                        line,
                        "region begin/commit balance differs across branch arms".to_string(),
                    );
                }
            }
            // Loop-head imbalance: the body changes region depth.
            if let Some(h) = &blk.loop_head {
                for &bp in &h.back_preds {
                    if let (Some(ib), Some(ob)) = (&ins[b], &outs[bp]) {
                        if ob.begins.len() != ib.begins.len() {
                            let line = *ob.begins.last().or(ib.begins.last()).unwrap_or(&0);
                            self.emit(
                                SRule::S5UnbalancedRegion,
                                line,
                                "loop body changes region begin/commit balance across iterations"
                                    .to_string(),
                            );
                        }
                    }
                }
            }
            let Some(inb) = &ins[b] else { continue };
            let mut st = inb.clone();
            for c in &g.blocks[b].stmts {
                self.apply(c, &mut st);
            }
        }
        if let Some(out) = &outs[g.exit] {
            if let Some(line) = out.begins.last() {
                self.emit(
                    SRule::S5UnbalancedRegion,
                    *line,
                    "region opened here is not committed/aborted on every path".to_string(),
                );
            }
        }
        self.w4_pass(&f.body);
    }

    // ---- W4: missed coalescing (syntactic loop pass) ----

    fn w4_pass(&mut self, nodes: &[Node]) {
        for n in nodes {
            match n {
                Node::Loop(body) => {
                    self.w4_elementwise(body);
                    self.w4_barrier(body);
                    self.w4_pass(body);
                }
                Node::Branch(arms) => {
                    for a in arms {
                        self.w4_pass(a);
                    }
                }
                _ => {}
            }
        }
    }

    /// Form (a): two or more distinct per-element flushes of the same
    /// array inside one loop iteration, with no fence/range reset between
    /// them — a single `flush_range` would cover them.
    fn w4_elementwise(&mut self, body: &[Node]) {
        // base → (distinct flush keys, first flush line)
        let mut seg: BTreeMap<String, (Vec<String>, u32)> = BTreeMap::new();
        let close = |seg: &mut BTreeMap<String, (Vec<String>, u32)>,
                     out: &mut Vec<(String, usize, u32)>| {
            for (base, (keys, line)) in seg.iter() {
                if keys.len() >= 2 {
                    out.push((base.clone(), keys.len(), *line));
                }
            }
            seg.clear();
        };
        let mut hits: Vec<(String, usize, u32)> = Vec::new();
        for n in body {
            match n {
                Node::Call(c) => match classify(c, self.cfg, self.is_wal_file) {
                    Kind::Flush(Some(base)) => {
                        let (key, range) = flush_key(c);
                        if range {
                            close(&mut seg, &mut hits);
                        } else {
                            let e = seg.entry(base).or_insert_with(|| (Vec::new(), c.line));
                            if !e.0.contains(&key) {
                                e.0.push(key);
                            }
                        }
                    }
                    Kind::Fence
                    | Kind::Barrier
                    | Kind::Flush(None)
                    | Kind::PersistRange(_)
                    | Kind::RegionEnd => close(&mut seg, &mut hits),
                    _ => {}
                },
                // Control flow inside the iteration resets the window.
                Node::Branch(_) | Node::Loop(_) | Node::Diverge => close(&mut seg, &mut hits),
            }
        }
        close(&mut seg, &mut hits);
        for (base, count, line) in hits {
            self.emit(
                SRule::W4MissedCoalescing,
                line,
                format!(
                    "loop body flushes {count} elements of `{base}` individually; a single flush_range would cover them"
                ),
            );
        }
    }

    /// Form (b): a per-iteration commit barrier that publishes nothing —
    /// the flush+fence can be hoisted out of the loop. Only fires when the
    /// barrier resolves to a summarized non-publishing function, so
    /// forward kernel loops (whose commit ends the region) and recovery
    /// sinks (which publish the table) stay exempt.
    fn w4_barrier(&mut self, body: &[Node]) {
        let mut stores = false;
        let mut publishes = false;
        let mut barrier: Option<(u32, String)> = None;
        self.w4_scan(body, &mut stores, &mut publishes, &mut barrier);
        if stores && !publishes {
            if let Some((line, what)) = barrier {
                self.emit(
                    SRule::W4MissedCoalescing,
                    line,
                    format!(
                        "per-iteration `{what}` flushes and fences but publishes nothing; hoist the commit out of the loop"
                    ),
                );
            }
        }
    }

    fn w4_scan(
        &self,
        nodes: &[Node],
        stores: &mut bool,
        publishes: &mut bool,
        barrier: &mut Option<(u32, String)>,
    ) {
        for n in nodes {
            match n {
                Node::Call(c) => match classify(c, self.cfg, self.is_wal_file) {
                    Kind::DataStore(_) | Kind::RegionStore | Kind::DurableStore => *stores = true,
                    Kind::TablePublish
                    | Kind::TablePersist
                    | Kind::MarkerPublish
                    | Kind::StatusPublish
                    | Kind::ParityPublish
                    | Kind::LogAppend
                    | Kind::RegionBegin
                    | Kind::RegionEnd => *publishes = true,
                    Kind::Barrier => match self.resolve(c) {
                        Some(s) if !s.publishes => {
                            let what = if c.receiver.is_empty() {
                                format!("{}()", c.name)
                            } else {
                                format!("{}.{}()", c.receiver, c.name)
                            };
                            barrier.get_or_insert((c.line, what));
                        }
                        Some(_) => *publishes = true,
                        None => {}
                    },
                    Kind::Other => {
                        if let Some(s) = self.resolve(c) {
                            if s.does_store {
                                *stores = true;
                            }
                            if s.publishes {
                                *publishes = true;
                            }
                        }
                    }
                    _ => {}
                },
                Node::Branch(arms) => {
                    for a in arms {
                        self.w4_scan(a, stores, publishes, barrier);
                    }
                }
                // Nested loops get their own w4_barrier check.
                Node::Loop(_) | Node::Diverge => {}
            }
        }
    }
}

/// Analyze a parsed file against a (possibly cross-file) summary table.
/// `file_label` is the path used in findings.
pub(crate) fn analyze_parsed(
    parsed: &ParsedFile,
    file_label: &str,
    cfg: &LintConfig,
    summaries: &Summaries,
) -> LintReport {
    let mut findings = Vec::new();
    for f in &parsed.fns {
        if f.context == FnContext::Ignore {
            continue;
        }
        let is_wal = is_wal(parsed, f);
        let mut facts = FnFacts::default();
        gather_facts(&f.body, cfg, is_wal, &mut facts);
        let mut ev = Eval {
            cfg,
            file: file_label,
            function: &f.name,
            context: f.context,
            is_wal_file: is_wal,
            facts,
            impl_ty: f.name.split_once("::").map(|(t, _)| t.to_string()),
            bindings: &f.bindings,
            summaries,
            emit_on: false,
            findings: &mut findings,
        };
        ev.run(f);
    }
    // `lp-lint: allow(Sx)` on the finding's line or the line above
    // suppresses it.
    findings.retain(|f| {
        !parsed.directives.iter().any(|(line, d)| {
            matches!(d, Directive::Allow(rules)
                if (*line == f.line || line + 1 == f.line)
                    && rules.iter().any(|r| SRule::from_id(r) == Some(f.rule)))
        })
    });
    let mut report = LintReport {
        files: vec![file_label.to_string()],
        functions: parsed.fns.len(),
        findings,
    };
    report.sort();
    report
}

/// Analyze one source file. `file_label` is the path used in findings;
/// `file_stem` drives WAL-context inference. Summaries are built from the
/// file itself; for cross-file summaries use [`crate::lint_paths`].
pub fn analyze_source(
    src: &str,
    file_label: &str,
    file_stem: &str,
    cfg: &LintConfig,
) -> LintReport {
    let parsed = parse_file(src, file_stem, cfg);
    let summaries = summarize_file(&parsed, cfg);
    analyze_parsed(&parsed, file_label, cfg, &summaries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> LintReport {
        analyze_source(src, "mem.rs", "mem", &LintConfig::default())
    }

    fn lint_wal(src: &str) -> LintReport {
        analyze_source(src, "wal.rs", "wal", &LintConfig::default())
    }

    #[test]
    fn clean_eager_pattern_has_no_findings() {
        let r = lint(
            "fn run(ctx: &mut C) {\n\
               for i in 0..n {\n\
                 ctx.store(self.buf, i, v);\n\
                 ctx.clflushopt(self.buf.addr(i));\n\
               }\n\
               ctx.sfence();\n\
               ctx.store(self.markers, tid, 1);\n\
             }",
        );
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn marker_before_fence_is_s1() {
        let r = lint(
            "fn run(ctx: &mut C) {\n\
               ctx.store(self.buf, 0, v);\n\
               ctx.clflushopt(self.buf.addr(0));\n\
               ctx.store(self.markers, tid, 1);\n\
               ctx.sfence();\n\
             }",
        );
        assert!(r.flags(SRule::S1StoreNotCovered), "{r}");
        assert_eq!(r.findings[0].line, 4);
    }

    #[test]
    fn marker_with_unflushed_store_is_s1() {
        let r = lint(
            "fn run(ctx: &mut C) {\n\
               ctx.store(self.buf, 0, v);\n\
               ctx.sfence();\n\
               ctx.store(self.markers, tid, 1);\n\
             }",
        );
        assert!(r.flags(SRule::S1StoreNotCovered), "{r}");
    }

    #[test]
    fn lazy_region_without_flushes_is_clean() {
        // The LP idiom: plain stores, fold into ck, publish the table.
        let r = lint(
            "fn region(ctx: &mut C) {\n\
               ctx.store(self.buf, 0, v);\n\
               self.ck.update(v.to_bits64());\n\
               self.table.store(ctx, key, self.ck.value());\n\
             }",
        );
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn unfolded_store_before_table_publish_is_s2() {
        let r = lint(
            "fn region(ctx: &mut C) {\n\
               ctx.store(self.buf, 0, v);\n\
               self.table.store(ctx, key, self.ck.value());\n\
             }",
        );
        assert!(r.flags(SRule::S2PublishBeforeCover), "{r}");
    }

    #[test]
    fn wal_store_before_log_fence_is_s3() {
        let r = lint_wal(
            "fn commit(ctx: &mut C) {\n\
               ctx.store(self.data, 0, v);\n\
               ctx.store(arena.entries, 0, old);\n\
               ctx.clflushopt(arena.entries.addr(0));\n\
               ctx.sfence();\n\
             }",
        );
        assert!(r.flags(SRule::S3OverwriteBeforeLogFence), "{r}");
        assert_eq!(r.findings[0].line, 2);
    }

    #[test]
    fn wal_context_directive_is_wal_evidence() {
        // A non-`wal` file stem: only the directive marks `log` as the
        // undo log, so the data store ahead of its fence is S3.
        let r = lint(
            "// lp-lint: context(wal)\n\
             fn commit(ctx: &mut C) {\n\
               ctx.store(arr, 0, v);\n\
               ctx.store(log, 0, old);\n\
               ctx.clflushopt(log.addr(0));\n\
               ctx.sfence();\n\
             }",
        );
        assert!(r.flags(SRule::S3OverwriteBeforeLogFence), "{r}");
        assert_eq!(r.findings[0].line, 3);
    }

    #[test]
    fn wal_figure2_order_is_clean() {
        let r = lint_wal(
            "fn commit(ctx: &mut C) {\n\
               ctx.store(arena.entries, 0, old);\n\
               ctx.clflushopt(arena.entries.addr(0));\n\
               ctx.store(arena.header, 1, n);\n\
               ctx.clflushopt(arena.header.addr(1));\n\
               ctx.sfence();\n\
               ctx.store(arena.header, 0, 1);\n\
               ctx.clflushopt(arena.header.addr(0));\n\
               ctx.sfence();\n\
               ctx.store_addr(addr, bits);\n\
               ctx.clflushopt(addr);\n\
               ctx.sfence();\n\
             }",
        );
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn recovery_marker_before_repair_fence_is_s4() {
        let r = lint(
            "fn recover(ctx: &mut C) {\n\
               ctx.store(self.buf, 0, v);\n\
               ctx.store(self.markers, tid, 1);\n\
               ctx.clflushopt(self.buf.addr(0));\n\
               ctx.sfence();\n\
             }",
        );
        assert!(r.flags(SRule::S4MarkerBeforeRepairFence), "{r}");
    }

    #[test]
    fn recovery_fenced_repairs_then_marker_is_clean() {
        let r = lint(
            "fn recover(ctx: &mut C) {\n\
               ctx.store(self.buf, 0, v);\n\
               ctx.clflushopt(self.buf.addr(0));\n\
               ctx.sfence();\n\
               ctx.store(self.markers, tid, 1);\n\
             }",
        );
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn store_outside_region_is_s5() {
        let r = lint(
            "fn run(ctx: &mut C) {\n\
               tp.store(ctx, &mut rs, arr, 0, v);\n\
               let mut rs = tp.begin(ctx, 0);\n\
               tp.store(ctx, &mut rs, arr, 1, v);\n\
               tp.commit(ctx, rs);\n\
             }",
        );
        assert!(r.flags(SRule::S5UnbalancedRegion), "{r}");
        assert_eq!(r.findings[0].line, 2);
    }

    #[test]
    fn uncommitted_region_on_some_path_is_s5() {
        let r = lint(
            "fn run(ctx: &mut C) {\n\
               let mut rs = tp.begin(ctx, 0);\n\
               if cond {\n\
                 tp.commit(ctx, rs);\n\
               }\n\
             }",
        );
        assert!(r.flags(SRule::S5UnbalancedRegion), "{r}");
    }

    #[test]
    fn balanced_region_loop_is_clean() {
        let r = lint(
            "fn run(ctx: &mut C) {\n\
               for k in 0..n {\n\
                 let mut rs = tp.begin(ctx, k);\n\
                 tp.store(ctx, &mut rs, arr, k, v);\n\
                 tp.commit(ctx, rs);\n\
               }\n\
             }",
        );
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn branch_with_pending_store_on_one_arm_flags_at_publish() {
        let r = lint(
            "fn run(ctx: &mut C) {\n\
               if cond {\n\
                 ctx.store(self.buf, 0, v);\n\
               } else {\n\
                 ctx.store(self.buf, 1, v);\n\
                 ctx.clflushopt(self.buf.addr(1));\n\
                 ctx.sfence();\n\
               }\n\
               ctx.store(self.markers, tid, 1);\n\
             }",
        );
        assert!(r.flags(SRule::S1StoreNotCovered), "{r}");
        assert_eq!(r.findings[0].line, 9);
    }

    #[test]
    fn barrier_discharges_obligations() {
        let r = lint(
            "fn run(ctx: &mut C) {\n\
               ctx.store(self.buf, 0, v);\n\
               committer.commit(ctx);\n\
               ctx.store(self.markers, tid, 1);\n\
             }",
        );
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn persist_helpers_discharge() {
        let r = lint(
            "fn run(ctx: &mut C) {\n\
               persist_store(ctx, self.markers, tid, 1);\n\
               ctx.store(self.buf, 0, v);\n\
               persist_range(ctx, self.buf, 0, n);\n\
               ctx.store(self.markers, tid, 2);\n\
             }",
        );
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn allow_directive_suppresses() {
        let r = lint(
            "fn run(ctx: &mut C) {\n\
               ctx.store(self.buf, 0, v);\n\
               // lp-lint: allow(S1) intentional: covered by caller\n\
               ctx.store(self.markers, tid, 1);\n\
             }",
        );
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn diverged_arm_does_not_pollute_merge() {
        let r = lint(
            "fn run(ctx: &mut C) {\n\
               if cond {\n\
                 ctx.store(self.buf, 0, v);\n\
                 return;\n\
               }\n\
               ctx.store(self.markers, tid, 1);\n\
             }",
        );
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn recovery_repair_after_marker_is_s4() {
        // Static twin of fmut:marker_first_recovery: the marker is durably
        // published first, then the data it vouches for is repaired.
        let r = lint(
            "fn recover(ctx: &mut C) {\n\
               ctx.store(self.markers, 0, key + 1);\n\
               ctx.clflushopt(self.markers.addr(0));\n\
               ctx.sfence();\n\
               ctx.store(self.buf, 0, v);\n\
               ctx.clflushopt(self.buf.addr(0));\n\
               ctx.sfence();\n\
             }",
        );
        assert!(r.flags(SRule::S4MarkerBeforeRepairFence), "{r}");
        assert_eq!(r.findings[0].line, 2, "{r}");
    }

    #[test]
    fn raw_store_outside_region_is_s5() {
        let r = lint(
            "fn run(ctx: &mut C) {\n\
               ctx.store(arr, 0, v);\n\
               ctx.region_begin(key);\n\
               ctx.store(arr, 8, v);\n\
               self.ck.update(v);\n\
               self.table.store(ctx, key, self.ck.value());\n\
               ctx.region_end();\n\
             }",
        );
        assert!(r.flags(SRule::S5UnbalancedRegion), "{r}");
        assert_eq!(r.findings[0].line, 2, "{r}");
    }

    #[test]
    fn restore_fn_context_is_recovery_by_name() {
        let r = lint(
            "fn restore_block(ctx: &mut C) {\n\
               ctx.store(self.buf, 0, v);\n\
               self.table.store(ctx, key, ck);\n\
               ctx.clflushopt(self.buf.addr(0));\n\
               ctx.sfence();\n\
             }",
        );
        assert!(r.flags(SRule::S4MarkerBeforeRepairFence), "{r}");
    }

    #[test]
    fn parity_published_before_data_is_s7() {
        let r = lint(
            "fn region(ctx: &mut C) {\n\
               ctx.region_begin(key);\n\
               ctx.store(a, 0, v);\n\
               self.ck.update(v);\n\
               self.parity.store_lanes(ctx, key, &lanes);\n\
               ctx.store(a, 8, w);\n\
               self.ck.update(w);\n\
               self.table.store(ctx, key, self.ck.value());\n\
               ctx.region_end();\n\
             }",
        );
        assert!(r.flags(SRule::S7ParityBeforeData), "{r}");
        assert_eq!(r.of_rule(SRule::S7ParityBeforeData)[0].line, 5, "{r}");
    }

    #[test]
    fn parity_published_last_is_clean() {
        let r = lint(
            "fn region(ctx: &mut C) {\n\
               ctx.region_begin(key);\n\
               ctx.store(a, 0, v);\n\
               self.ck.update(v);\n\
               self.table.store(ctx, key, self.ck.value());\n\
               self.parity.store_lanes(ctx, key, &lanes);\n\
               ctx.region_end();\n\
             }",
        );
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn recovery_parity_with_unfenced_repair_is_s7() {
        let r = lint(
            "fn repair_region(ctx: &mut C) {\n\
               ctx.store(self.buf, 0, v);\n\
               self.parity.store_lanes(ctx, key, &lanes);\n\
               ctx.clflushopt(self.buf.addr(0));\n\
               ctx.sfence();\n\
             }",
        );
        assert!(r.flags(SRule::S7ParityBeforeData), "{r}");
        assert_eq!(r.of_rule(SRule::S7ParityBeforeData)[0].line, 3, "{r}");
    }

    #[test]
    fn recovery_parity_after_fenced_repair_is_clean() {
        let r = lint(
            "fn repair_region(ctx: &mut C) {\n\
               ctx.store(self.buf, 0, v);\n\
               ctx.clflushopt(self.buf.addr(0));\n\
               ctx.sfence();\n\
               self.parity.store_lanes(ctx, key, &lanes);\n\
             }",
        );
        assert!(r.is_clean(), "{r}");
    }

    // ---- W1–W4 / S6: write-efficiency and coverage rules ----

    #[test]
    fn same_line_flushed_twice_is_w1() {
        let r = lint(
            "fn run(ctx: &mut C) {\n\
               ctx.store(self.buf, 0, v);\n\
               ctx.clflushopt(self.buf.addr(0));\n\
               ctx.clflushopt(self.buf.addr(0));\n\
               ctx.sfence();\n\
             }",
        );
        assert!(r.flags(SRule::W1RedundantFlush), "{r}");
        assert_eq!(r.of_rule(SRule::W1RedundantFlush)[0].line, 4);
    }

    #[test]
    fn intervening_store_kills_w1() {
        let r = lint(
            "fn run(ctx: &mut C) {\n\
               ctx.store(self.buf, 0, v);\n\
               ctx.clflushopt(self.buf.addr(0));\n\
               ctx.store(self.buf, 0, w);\n\
               ctx.clflushopt(self.buf.addr(0));\n\
               ctx.sfence();\n\
             }",
        );
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn flush_on_one_branch_arm_only_is_not_w1() {
        // Must-analysis: the re-flush is only redundant on one path.
        let r = lint(
            "fn run(ctx: &mut C) {\n\
               if cond {\n\
                 ctx.clflushopt(self.buf.addr(0));\n\
               }\n\
               ctx.clflushopt(self.buf.addr(0));\n\
               ctx.sfence();\n\
             }",
        );
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn widening_drops_loop_born_flush_facts() {
        // The loop flushes `a.addr(i)` each iteration with a fresh `i`;
        // neither the next iteration nor the post-loop flush of the same
        // *text* is provably redundant.
        let r = lint(
            "fn run(ctx: &mut C) {\n\
               for i in 0..n {\n\
                 ctx.store(a, i, v);\n\
                 ctx.clflushopt(a.addr(i));\n\
               }\n\
               ctx.clflushopt(a.addr(i));\n\
               ctx.sfence();\n\
             }",
        );
        assert!(!r.flags(SRule::W1RedundantFlush), "{r}");
    }

    #[test]
    fn back_to_back_fences_is_w2() {
        let r = lint(
            "fn run(ctx: &mut C) {\n\
               ctx.store(self.buf, 0, v);\n\
               ctx.clflushopt(self.buf.addr(0));\n\
               ctx.sfence();\n\
               ctx.sfence();\n\
             }",
        );
        assert!(r.flags(SRule::W2RedundantFence), "{r}");
        assert_eq!(r.of_rule(SRule::W2RedundantFence)[0].line, 5);
    }

    #[test]
    fn fence_after_flush_is_not_w2() {
        let r = lint(
            "fn run(ctx: &mut C) {\n\
               ctx.sfence();\n\
               ctx.store(self.buf, 0, v);\n\
               ctx.clflushopt(self.buf.addr(0));\n\
               ctx.sfence();\n\
             }",
        );
        assert!(!r.flags(SRule::W2RedundantFence), "{r}");
    }

    #[test]
    fn element_flush_under_range_flush_is_w3() {
        let r = lint(
            "fn run(ctx: &mut C) {\n\
               ctx.store(self.buf, 0, v);\n\
               ctx.flush_range(self.buf, 0, n);\n\
               ctx.clflushopt(self.buf.addr(0));\n\
               ctx.sfence();\n\
             }",
        );
        assert!(r.flags(SRule::W3ShadowedFlush), "{r}");
        assert_eq!(r.of_rule(SRule::W3ShadowedFlush)[0].line, 4);
    }

    #[test]
    fn unrolled_element_flushes_in_loop_is_w4() {
        let r = lint(
            "fn run(ctx: &mut C) {\n\
               for i in 0..n {\n\
                 ctx.store(a, i, v);\n\
                 ctx.store(a, i + 1, v);\n\
                 ctx.clflushopt(a.addr(i));\n\
                 ctx.clflushopt(a.addr(i + 1));\n\
               }\n\
               ctx.sfence();\n\
             }",
        );
        assert!(r.flags(SRule::W4MissedCoalescing), "{r}");
    }

    #[test]
    fn single_flush_per_iteration_is_not_w4() {
        let r = lint(
            "fn run(ctx: &mut C) {\n\
               for i in 0..n {\n\
                 ctx.store(a, i, v);\n\
                 ctx.clflushopt(a.addr(i));\n\
               }\n\
               ctx.sfence();\n\
             }",
        );
        assert!(!r.flags(SRule::W4MissedCoalescing), "{r}");
    }

    #[test]
    fn per_iteration_barrier_without_publish_is_w4() {
        let r = lint(
            "impl Sink2 {\n\
               fn commit(&mut self, ctx: &mut C) {\n\
                 committer.commit(ctx);\n\
               }\n\
             }\n\
             fn replay_strips(ctx: &mut C) {\n\
               for kb in 0..n {\n\
                 let mut s2 = Sink2::default();\n\
                 ctx.store(a, kb, v);\n\
                 s2.commit(ctx);\n\
               }\n\
             }",
        );
        assert!(r.flags(SRule::W4MissedCoalescing), "{r}");
    }

    #[test]
    fn per_iteration_region_commit_is_not_w4() {
        // Forward kernel loops end each iteration's *region*; that commit
        // publishes (tp.commit → RegionEnd) and must not be hoisted.
        let r = lint(
            "impl Sink3 {\n\
               fn commit(&mut self, ctx: &mut C) {\n\
                 self.tp.commit(ctx, rs);\n\
               }\n\
             }\n\
             fn run(ctx: &mut C) {\n\
               for k in 0..n {\n\
                 let mut s3 = Sink3::default();\n\
                 ctx.store(a, k, v);\n\
                 s3.commit(ctx);\n\
               }\n\
             }",
        );
        assert!(!r.flags(SRule::W4MissedCoalescing), "{r}");
    }

    #[test]
    fn unfolded_store_at_region_end_is_s6() {
        let r = lint(
            "fn region(ctx: &mut C) {\n\
               ctx.region_begin(key);\n\
               ctx.store(a, 0, v);\n\
               self.ck.update(v);\n\
               ctx.store(a, 8, w);\n\
               ctx.region_end();\n\
             }",
        );
        assert!(r.flags(SRule::S6UncoveredData), "{r}");
        assert_eq!(r.of_rule(SRule::S6UncoveredData)[0].line, 6);
    }

    #[test]
    fn fully_folded_region_is_not_s6() {
        let r = lint(
            "fn region(ctx: &mut C) {\n\
               ctx.region_begin(key);\n\
               ctx.store(a, 0, v);\n\
               self.ck.update(v);\n\
               ctx.region_end();\n\
             }",
        );
        assert!(r.is_clean(), "{r}");
    }

    // ---- interprocedural summaries ----

    #[test]
    fn summary_carries_unflushed_store_through_helper() {
        let r = lint(
            "fn fill(ctx: &mut C) {\n\
               ctx.store(self.buf, 0, v);\n\
             }\n\
             fn run(ctx: &mut C) {\n\
               fill(ctx);\n\
               ctx.store(self.markers, tid, 1);\n\
             }",
        );
        assert!(r.flags(SRule::S1StoreNotCovered), "{r}");
        assert_eq!(r.of_rule(SRule::S1StoreNotCovered)[0].line, 6, "{r}");
    }

    #[test]
    fn pure_helper_preserves_must_facts() {
        // A summarized helper that touches nothing must not break the
        // fence-cleanliness chain the way an unknown call does.
        let r = lint(
            "fn noop(ctx: &mut C) {\n\
             }\n\
             fn run(ctx: &mut C) {\n\
               ctx.store(self.buf, 0, v);\n\
               ctx.clflushopt(self.buf.addr(0));\n\
               ctx.sfence();\n\
               noop(ctx);\n\
               ctx.sfence();\n\
             }",
        );
        assert!(r.flags(SRule::W2RedundantFence), "{r}");
    }

    #[test]
    fn unknown_call_breaks_must_facts() {
        let r = lint(
            "fn run(ctx: &mut C) {\n\
               ctx.store(self.buf, 0, v);\n\
               ctx.clflushopt(self.buf.addr(0));\n\
               ctx.sfence();\n\
               mystery(ctx);\n\
               ctx.sfence();\n\
             }",
        );
        assert!(!r.flags(SRule::W2RedundantFence), "{r}");
    }

    #[test]
    fn storing_helper_kills_flush_facts() {
        let r = lint(
            "fn scribble(ctx: &mut C) {\n\
               ctx.store(self.buf, 0, v);\n\
               ctx.clflushopt(self.buf.addr(0));\n\
               ctx.sfence();\n\
             }\n\
             fn run(ctx: &mut C) {\n\
               ctx.clflushopt(self.buf.addr(0));\n\
               scribble(ctx);\n\
               ctx.clflushopt(self.buf.addr(0));\n\
               ctx.sfence();\n\
             }",
        );
        assert!(!r.flags(SRule::W1RedundantFlush), "{r}");
    }
}
