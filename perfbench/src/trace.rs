//! In-memory span recorder for the traced run.
//!
//! A span brackets one call from the benchmark into a workspace layer. It
//! holds the call's name (`<layer>.<step>`, e.g. `sim.run`), its start and
//! end in seconds since the recorder started, the span that was open when
//! it began, and the cell or case it belongs to. Spans stay in memory
//! until [`finish`] hands them back; nothing is written while measuring.
//!
//! The recorder is thread-local and off by default: [`span`] then costs
//! one thread-local check and calls straight through, so the same
//! workload code serves the untraced and the traced pass. Traced passes
//! run on one host thread, so every span nests in the one it began under.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<step>`, e.g. `core.recover`.
    pub name: &'static str,
    /// The cell or case the call worked on (`gauss.lp-par`), or the
    /// workload for the root span.
    pub id: String,
    /// Seconds since the recorder started.
    pub start: f64,
    /// Seconds since the recorder started (`start` until the span closes).
    pub end: f64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall seconds the span covers.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread (drops anything recorded before).
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        });
    });
}

/// Stop recording and return every span in the order they opened.
///
/// # Panics
///
/// Panics if a span is still open.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| {
        let rec = r.borrow_mut().take().unwrap_or_else(|| Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        });
        assert!(rec.stack.is_empty(), "finish() with an open span");
        rec.spans
    })
}

/// Closes its span when dropped, so a call that unwinds (recovery that
/// panics inside the model checker's `catch_unwind`) still ends its span.
struct Open(usize);

impl Drop for Open {
    fn drop(&mut self) {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                let end = rec.origin.elapsed().as_secs_f64();
                rec.spans[self.0].end = end;
                let top = rec.stack.pop();
                debug_assert_eq!(top, Some(self.0), "spans close in LIFO order");
            }
        });
    }
}

/// Run `f` inside a span named `name` for `id` (recorded only while the
/// recorder is on).
pub fn span<R>(name: &'static str, id: &str, f: impl FnOnce() -> R) -> R {
    let open = RECORDER.with(|r| {
        r.borrow_mut().as_mut().map(|rec| {
            let idx = rec.spans.len();
            let now = rec.origin.elapsed().as_secs_f64();
            rec.spans.push(Span {
                name,
                id: id.to_string(),
                start: now,
                end: now,
                parent: rec.stack.last().copied(),
            });
            rec.stack.push(idx);
            Open(idx)
        })
    });
    let out = f();
    drop(open);
    out
}

/// Each span's self time: its duration minus the part of it that its
/// children cover (children of one parent never overlap on one thread,
/// but the union is taken anyway so the result can never go negative).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut covered = 0.0;
            let mut reach = s.start;
            for &k in kids {
                let (a, b) = (spans[k].start.max(reach), spans[k].end.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.duration() - covered).max(0.0)
        })
        .collect()
}

/// Check that every span closed inside its parent and after it opened.
///
/// # Errors
///
/// Names the first span that breaks the nesting.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end < s.start {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let ps = &spans[p];
            if p >= i || s.start < ps.start || s.end > ps.end {
                return Err(format!(
                    "span {i} ({} {}) is not inside its parent {p} ({})",
                    s.name, s.id, ps.name
                ));
            }
        }
    }
    Ok(())
}

/// Σ self time per span name.
pub fn self_by_name(spans: &[Span], selfs: &[f64]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(selfs) {
        *out.entry(s.name).or_insert(0.0) += t;
    }
    out
}

/// Σ self time per `(span name, id)`.
pub fn self_by_name_id<'a>(
    spans: &'a [Span],
    selfs: &[f64],
) -> BTreeMap<(&'static str, &'a str), f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(selfs) {
        *out.entry((s.name, s.id.as_str())).or_insert(0.0) += t;
    }
    out
}

/// Σ self time per layer.
pub fn self_by_layer(spans: &[Span], selfs: &[f64]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(selfs) {
        *out.entry(s.layer()).or_insert(0.0) += t;
    }
    out
}

/// The spans as a JSON array (one object per line).
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"i\":{i},\"name\":\"{}\",\"id\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent}}}{}\n",
            s.name,
            s.id,
            s.start,
            s.end,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_subtracts_children() {
        start();
        span("bench.pass", "w", || {
            span("sim.run", "a", || {
                std::thread::sleep(std::time::Duration::from_millis(3))
            });
            span("core.recover", "a", || {
                span("kernels.verify", "a", || {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                });
            });
        });
        let spans = finish();
        assert_eq!(spans.len(), 4);
        check_nesting(&spans).unwrap();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        let selfs = self_times(&spans);
        assert!(selfs.iter().all(|&t| t >= 0.0));
        let total: f64 = selfs.iter().sum();
        assert!((total - spans[0].duration()).abs() < 1e-9);
    }

    #[test]
    fn untraced_span_is_a_plain_call() {
        assert_eq!(span("sim.run", "x", || 7), 7);
        assert!(finish().is_empty());
    }

    #[test]
    fn unwinding_call_closes_its_span() {
        start();
        let r = std::panic::catch_unwind(|| span("core.recover", "x", || panic!("stuck")));
        assert!(r.is_err());
        let spans = finish();
        assert_eq!(spans.len(), 1);
        check_nesting(&spans).unwrap();
    }
}
