#!/usr/bin/env python3
"""Judge a change against a base commit on this host with the repo benchmark.

    python3 tools/ab.py BASE [--pairs N] [--seconds S] [workload ...]

The parent side is BASE, checked out as a detached git worktree under
target/ab/ and built there; the change side is the working tree this
script sits in, uncommitted edits included. Pair i runs seed i on both
sides, the parent first on even i and the change first on odd i. The
command, the run length, the workloads and each end-to-end metric's
bound come from BENCHMARK.json; by default every workload runs ten
pairs at the benchmark's run length.

The report is markdown on stdout: per workload and metric, each side's
median, quartiles and spread, the change / parent ratios, the change's
wins and a verdict; then the attempted operations and every run.

Exit status: 1 when a run is not correct, when runs come from different
host fingerprints, or when a metric regresses past its bound; 0
otherwise. An unresolved metric is reported but does not fail.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = ["cargo", "build", "--quiet", "--release", "--offline",
         "--manifest-path", "perfbench/Cargo.toml"]
SIDES = ("parent", "change")


# ---- verdict rules (pure) ----

def quartiles(values):
    """(Q1, median, Q3) by `statistics.quantiles(n=4)`, as perfbench/spread.py."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med


def wins(parent, change, better):
    """(change wins, ties) over the pairs; a tie counts for neither side."""
    sign = 1 if better == "higher" else -1
    won = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    tied = sum(1 for p, c in zip(parent, change) if c == p)
    return won, tied


def overlap(parent, change):
    """Whether some run of one side lies within the other side's range."""
    return max(parent) >= min(change) and max(change) >= min(parent)


# Fewest pairs that can show a gain: with fewer, the quartiles are near the
# extremes and a handful of lucky wins passes the nine-in-ten rule.
MIN_GAIN_PAIRS = 10


def verdict(parent, change, better, bound):
    """One of: unresolved, regression, gain, within bound.

    parent[i] and change[i] are the two runs of pair i. A gain needs at
    least MIN_GAIN_PAIRS pairs; fewer can still show a regression.
    """
    if max(spread(parent), spread(change)) > bound and overlap(parent, change):
        return "unresolved"
    sign = 1 if better == "higher" else -1
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    if sign * (p_med - c_med) / p_med > bound:
        return "regression"
    won, _ = wins(parent, change, better)
    if (len(parent) >= MIN_GAIN_PAIRS and 10 * won >= 9 * len(parent)
            and sign * (c_med - p_med) > p_q3 - p_q1):
        return "gain"
    return "within bound"


def refusal(runs):
    """Why these runs cannot be judged, or None.

    Each run is a dict with `workload`, `seed`, `side`, `result` (the
    benchmark's final JSON line) and `fingerprint` ((cpu, nproc, rustc)).
    """
    for r in runs:
        if r["result"].get("correct") is not True:
            return f"{r['workload']} seed {r['seed']} {r['side']}: not correct: {r['result']}"
    hosts = {r["fingerprint"] for r in runs}
    if len(hosts) > 1:
        return f"runs come from different host fingerprints: {sorted(hosts)}"
    return None


# ---- running ----

def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def remove_worktree(path):
    subprocess.run(["git", "worktree", "remove", "--force", path], cwd=ROOT,
                   capture_output=True)
    shutil.rmtree(path, ignore_errors=True)
    subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)


def run_once(command, root, side, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    run = {"workload": workload, "seed": seed, "side": side,
           "result": {}, "fingerprint": None}
    try:
        run["result"] = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return run
    # The benchmark records each run's host fingerprint next to its result.
    record = os.path.join(root, "perfbench", "out", f"{workload}-seed{seed}-trace0.json")
    with open(record) as f:
        fp = json.load(f)["fingerprint"]
    run["fingerprint"] = (fp["cpu"], fp["nproc"], fp["rustc"])
    return run


def fmt(v):
    return f"{v:.4g}"


def report(bench, runs, base, change_label, pairs, seconds):
    metrics = bench["end_to_end"]
    workloads = list(dict.fromkeys(r["workload"] for r in runs))
    host = runs[0]["fingerprint"]
    out = [f"# Same-host A/B: parent `{base}` vs change {change_label}", "",
           f"{pairs} pairs per workload, `--seconds {seconds}`, pair i on seed i, "
           f"the parent first on even i. Host: {host[0]}, {host[1]} CPUs, {host[2]}.", "",
           "| workload | metric | parent median (Q1–Q3) | parent IQR ÷ median "
           "| change median (Q1–Q3) | change IQR ÷ median | change ÷ parent "
           "| paired | change wins | bound | verdict |",
           "|---|---|---|---|---|---|---|---|---|---|---|"]
    regressions = []
    for w in workloads:
        for m in metrics:
            vals = {s: [r["result"]["metrics"][m["name"]]["value"]
                        for r in runs if r["workload"] == w and r["side"] == s]
                    for s in SIDES}
            p, c = vals["parent"], vals["change"]
            cells = []
            for side in (p, c):
                q1, med, q3 = quartiles(side)
                cells += [f"{fmt(med)} ({fmt(q1)}–{fmt(q3)})", f"{spread(side):.3f}"]
            won, tied = wins(p, c, m["better"])
            judged = verdict(p, c, m["better"], m["bound"])
            if judged == "regression":
                regressions.append(f"{w} {m['name']}")
            ratio = statistics.median(c) / statistics.median(p)
            paired = statistics.median(b / a for a, b in zip(p, c))
            out.append(f"| {w} | {m['name']} ({m['unit']}) | {' | '.join(cells)} "
                       f"| {ratio:.3f} | {paired:.3f} "
                       f"| {won}/{len(p)} ({tied} tied) | {m['bound']} | {judged} |")
    out += ["", "| workload | parent failed / attempted | change failed / attempted |",
            "|---|---|---|"]
    for w in workloads:
        cells = []
        for s in SIDES:
            mine = [r["result"] for r in runs if r["workload"] == w and r["side"] == s]
            cells.append(f"{sum(r['failed'] for r in mine)} / "
                         f"{sum(r['attempted'] for r in mine)}")
        out.append(f"| {w} | {' | '.join(cells)} |")
    names = [m["name"] for m in metrics]
    out += ["", "Every run, in the order run:", "",
            "| workload | seed | side | " + " | ".join(names) + " | failed / attempted |",
            "|---|---|---|" + "---|" * len(names) + "---|"]
    for r in runs:
        res = r["result"]
        row = " | ".join(fmt(res["metrics"][n]["value"]) for n in names)
        out.append(f"| {r['workload']} | {r['seed']} | {r['side']} | {row} "
                   f"| {res['failed']} / {res['attempted']} |")
    out.append("")
    out.append("Regressions: " + (", ".join(regressions) if regressions else "none") + ".")
    print("\n".join(out))
    return regressions


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="the commit to compare against, e.g. HEAD~1")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("workloads", nargs="*", help=f"default: {' '.join(names)}")
    args = ap.parse_intermixed_args()
    if args.pairs < 1 or args.seconds < 0:
        ap.error("--pairs must be at least 1 and --seconds non-negative")
    unknown = set(args.workloads) - set(names)
    if unknown:
        ap.error(f"unknown workloads {sorted(unknown)}; choose from {names}")
    args.workloads = args.workloads or names
    seconds = f"{args.seconds:g}"

    base = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    head = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain")
    change_label = f"`{head[:12]}`" + (" with uncommitted edits" if dirty else "")
    tree = os.path.join(ROOT, "target", "ab", base[:12])
    # Turn SIGTERM into SystemExit so the `finally` below still removes the worktree.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    remove_worktree(tree)
    try:
        git("worktree", "add", "--detach", tree, base)
        roots = {"parent": tree, "change": ROOT}
        for side in SIDES:
            print(f"building perfbench ({side})", file=sys.stderr)
            subprocess.run(BUILD, cwd=roots[side], check=True)
        runs = []
        for w in args.workloads:
            for i in range(args.pairs):
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    run = run_once(bench["command"], roots[side], side, w, i, seconds)
                    runs.append(run)
                    print(f"{w} seed {i} {side}: {run['result']}", file=sys.stderr)
                    why = refusal(runs)
                    if why:
                        sys.exit(f"ab.py: refusing to judge: {why}")
    finally:
        remove_worktree(tree)
    regressions = report(bench, runs, base[:12], change_label, args.pairs, seconds)
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
