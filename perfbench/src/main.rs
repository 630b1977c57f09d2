//! `perfbench --workload <kernels|recover|census|faults> --seed <n>
//! --seconds <s> --trace <0|1> [--print-pins]`
//!
//! Prints the host fingerprint, the workload's table and headline
//! numbers, and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Results (and the traced run's
//! spans) are also written under `perfbench/out/`.

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use perfbench::metrics::Metric;
use perfbench::{run, trace, Options, Outcome, Workload};

const USAGE: &str = "usage: perfbench --workload <kernels|recover|census|faults> --seed <n> \
                     --seconds <s> --trace <0|1> [--print-pins]";

fn parse() -> Result<(Options, bool), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut print_pins = false;
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                });
            }
            "--print-pins" => print_pins = true,
            _ => return Err(format!("unknown argument '{a}'")),
        }
    }
    Ok((
        Options {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
            tiny: false,
        },
        print_pins,
    ))
}

/// Output of a short command, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The host the numbers came from. `cpu`, `nproc` and `rustc` decide
/// whether two results may be compared; `commit` only labels them.
fn fingerprint() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let repo = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    vec![
        ("cpu", cpu),
        ("nproc", lp_sim::par::available_threads().to_string()),
        ("rustc", command_line("rustc", &["--version"])),
        (
            "commit",
            command_line("git", &["-C", repo, "rev-parse", "HEAD"]),
        ),
    ]
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number in JSON, with every digit Rust keeps.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_metrics(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn result_line(out: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct(),
        out.attempted,
        out.failed,
        json_metrics(&out.metrics)
    )
}

/// Record the run under `perfbench/out/`: the fingerprint, every metric,
/// the table, and the traced run's spans.
fn record(opts: &Options, fp: &[(&str, String)], out: &Outcome) -> std::io::Result<()> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let stem = format!(
        "{dir}/{}-seed{}-trace{}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    let fp_json: Vec<String> = fp
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let table: Vec<String> = out.table.iter().map(|l| json_str(l)).collect();
    let notes: Vec<String> = out.notes.iter().map(|l| json_str(l)).collect();
    let doc = format!(
        "{{\n\"workload\": {},\n\"seed\": {},\n\"trace\": {},\n\"passes\": {},\n\"fingerprint\": {{{}}},\n\
         \"result\": {},\n\"findings\": {},\n\"table\": [{}],\n\"notes\": [{}]\n}}\n",
        json_str(opts.workload.name()),
        opts.seed,
        opts.trace,
        out.passes,
        fp_json.join(", "),
        result_line(out),
        json_metrics(&out.findings),
        table.join(",\n"),
        notes.join(",\n"),
    );
    std::fs::write(format!("{stem}.json"), doc)?;
    if opts.trace {
        std::fs::write(format!("{stem}.spans.json"), trace::to_json(&out.spans))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let (opts, print_pins) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let fp = fingerprint();
    let out = run(&opts);
    let fp_line: Vec<String> = fp.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("fingerprint: {}", fp_line.join(" | "));
    println!(
        "workload {} seed {} trace {} passes {}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace),
        out.passes
    );
    for line in &out.table {
        println!("  {line}");
    }
    for m in &out.findings {
        println!("{:<24} {:>18} {}", m.name, json_num(m.value), m.unit);
    }
    for n in &out.notes {
        eprintln!("note: {n}");
    }
    if print_pins {
        for p in &out.pins {
            println!("pin: {p}");
        }
    }
    if let Err(e) = record(&opts, &fp, &out) {
        eprintln!("perfbench: could not record results: {e}");
    }
    println!("{}", result_line(&out));
    ExitCode::SUCCESS
}
