//! The benchmark's own tests, on a tiny pass of every workload (Test-scale
//! kernels, the smoke census budget): the metrics it emits are exactly
//! the ones `BENCHMARK.json` declares, the traced run's spans nest, and
//! seeds behave as the benchmark promises.

use perfbench::metrics::{per_layer_spec, END_TO_END};
use perfbench::{run, trace, Options, Outcome, Workload};

const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// The text of the list `"<key>": [ ... ]` in `BENCHMARK.json`.
fn section(key: &str) -> &'static str {
    let start = MANIFEST
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("no {key} list"));
    let rest = &MANIFEST[start..];
    &rest[..rest.find(']').expect("list closes")]
}

/// Assert that the `key` list holds exactly one entry per `entries`, in
/// order, each starting with the given text.
fn assert_declares(key: &str, entries: &[String]) {
    let text = section(key);
    assert_eq!(
        text.matches("{\"name\": ").count(),
        entries.len(),
        "{key}: entry count"
    );
    let mut at = 0;
    for e in entries {
        let found = text[at..]
            .find(e.as_str())
            .unwrap_or_else(|| panic!("{key}: {e} missing or out of order"));
        at += found + e.len();
    }
}

fn named(name: &str, unit: &str) -> String {
    format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"")
}

fn tiny(workload: Workload, seed: u64, trace: bool) -> Outcome {
    run(&Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        tiny: true,
    })
}

#[test]
fn manifest_declares_every_workload_and_metric() {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": ", w.name()))
        .collect();
    assert_declares("workloads", &workloads);
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, u)| named(n, u)).collect();
    assert_declares("end_to_end", &e2e);
    let layers: Vec<String> = per_layer_spec().iter().map(|(n, u)| named(n, u)).collect();
    assert_declares("per_layer", &layers);
    assert!(MANIFEST.contains("\"paths\": [\"perfbench\"]"));
}

#[test]
fn untraced_runs_emit_the_end_to_end_metrics() {
    for w in Workload::ALL {
        let out = tiny(w, 3, false);
        assert!(out.correct(), "{}: {:?}", w.name(), out.notes);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want, "{}", w.name());
        for m in &out.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {}: {}",
                w.name(),
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn traced_runs_emit_the_per_layer_metrics_and_nest() {
    let want: Vec<String> = per_layer_spec().into_iter().map(|(n, _)| n).collect();
    for w in Workload::ALL {
        let out = tiny(w, 3, true);
        assert!(out.correct(), "{}: {:?}", w.name(), out.notes);
        let names: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(names, want, "{}", w.name());
        assert!(out
            .metrics
            .iter()
            .all(|m| m.value.is_finite() && m.value >= 0.0));

        let spans = &out.spans;
        trace::check_nesting(spans).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert_eq!(spans[0].name, "bench.pass");
        assert!(spans[1..].iter().all(|s| s.parent.is_some()), "one root");
        let selfs = trace::self_times(spans);
        assert!(selfs.iter().all(|&t| t >= 0.0));
        let wall = spans[0].duration();
        let layers: f64 = trace::self_by_layer(spans, &selfs).values().sum();
        assert!(
            (layers - wall).abs() <= 0.02 * wall,
            "{}: {layers} vs {wall}",
            w.name()
        );
        let value = |n: &str| {
            out.metrics
                .iter()
                .find(|m| m.name == n)
                .expect("metric")
                .value
        };
        assert!(value("trace.coverage") >= 0.9, "{}", w.name());
        assert!(value("trace.overhead") > 0.0, "{}", w.name());
    }
}

#[test]
fn a_seed_repeats_exactly_and_another_seed_moves_the_crash_points() {
    for w in [Workload::Recover, Workload::Census] {
        let a = tiny(w, 11, false);
        let b = tiny(w, 11, false);
        let c = tiny(w, 12, false);
        assert!(a.correct() && b.correct() && c.correct(), "{}", w.name());
        let sigs = |o: &Outcome| {
            o.pins
                .iter()
                .map(|p| p.splitn(3, ' ').nth(2).expect("pin line").to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            sigs(&a),
            sigs(&b),
            "{}: same seed, same simulated outcome",
            w.name()
        );
        assert_ne!(
            sigs(&a),
            sigs(&c),
            "{}: another seed, another outcome",
            w.name()
        );
    }
}
