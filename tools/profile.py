#!/usr/bin/env python3
"""Sample where a program of this repository spends its CPU time.

    python3 tools/profile.py [--top N] [--require CRATE:PCT] -- COMMAND [ARG ...]

The script builds the sampler (tools/sampler, a std-only library), runs
COMMAND with it preloaded, and reads the samples it writes at exit: the
program counter interrupted by each SIGPROF of a 1 ms CPU-time timer over
all the process's threads. The kernel delivers that signal at most once
per scheduler tick, so a sample stands for a tick of CPU time (5.7 ms on
average on the 2-vCPU host of results/sim_op_cost_ab.md). Run the
program's binary itself, not `cargo run`, which would be the process
sampled. COMMAND's stdout goes to stderr, so stdout carries only the
report.

Samples in the executable are symbolized with `addr2line -f -i -C`, which
lists the inlined frames at each address, innermost first. A sample goes
to the innermost frame that belongs to a workspace crate (`lp_*`,
`perfbench`, `lazy_persistency`): a `Vec::push` inlined into
`lp_sim::cache` counts for lp_sim. A sample with no workspace frame goes
to the crate of its innermost frame (`core`, `alloc`, `std`), and a sample
outside the executable to its shared library (`[libc.so.6]`).

The report is markdown on stdout: the share of each crate, of each
workspace module (`lp_sim::mc`), and of the top N functions.
`--require lp_sim:50` exits 1 unless lp_sim holds at least 50% of the
samples.
"""

import argparse
import bisect
import os
import subprocess
import sys
import tempfile
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAMPLER = os.path.join(ROOT, "tools", "sampler")
LIBRARY = os.path.join(SAMPLER, "target", "release", "liblp_sampler.so")
WORKSPACE_PREFIXES = ("lp_", "perfbench", "lazy_persistency")


# ---- attribution (pure) ----

def self_path(function):
    """The path a demangled function name is defined under: the name
    itself, or for `<T as Trait>::f` the self type `T`, or the trait when
    `T` is a primitive or generic type without a path."""
    name = function.lstrip("<&* ")
    if name.startswith("mut "):
        name = name[4:]
    if function.startswith("<") and " as " in name:
        ty, trait = name.split(" as ", 1)
        if "::" not in ty:
            name = trait
    return name


PRIMITIVES = {"bool", "char", "str", "f32", "f64", "u8", "u16", "u32", "u64",
              "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize"}


def crate_of(function):
    """The crate a demangled function name belongs to: the first segment
    of its `self_path`, or `core` for a method of a primitive type."""
    head = self_path(function).split("::", 1)[0]
    for stop in "<> ()[,":
        head = head.split(stop, 1)[0]
    if head in PRIMITIVES or self_path(function).startswith("["):
        return "core"
    return head or "??"


def module_of(function):
    """The first two path segments of a workspace function name:
    `crate::module`, or `crate::function` for a function at the crate
    root."""
    parts = []
    for seg in self_path(function).split("::")[:2]:
        seg = seg.split("<", 1)[0].split(">", 1)[0].strip()
        if not seg or not seg.replace("_", "").isalnum() or seg[0].isupper():
            break
        parts.append(seg)
    return "::".join(parts) or crate_of(function)


def is_workspace(crate):
    return crate.startswith(WORKSPACE_PREFIXES)


def attribute(frames):
    """(function, crate) a sample's inline frames, innermost first, count
    for: the innermost workspace frame, else the innermost frame."""
    for f in frames:
        if is_workspace(crate_of(f)):
            return f, crate_of(f)
    if frames and frames[0] != "??":
        return frames[0], crate_of(frames[0])
    return "??", "??"


def parse_addr2line(text):
    """{address: [function, ...]} from `addr2line -a -f -i` output: each
    address line is followed by (function, location) pairs, innermost
    first."""
    out = {}
    current = None
    expect_function = True
    for line in text.splitlines():
        if line.startswith("0x") and expect_function:
            current = int(line, 16)
            out[current] = []
            continue
        if current is None:
            continue
        if expect_function:
            out[current].append(strip_hash(line.strip()))
        expect_function = not expect_function
    return out


def strip_hash(function):
    """Drop the `::h0123456789abcdef` suffix of a legacy Rust symbol."""
    head, sep, tail = function.rpartition("::h")
    if sep and len(tail) == 16 and all(c in "0123456789abcdef" for c in tail):
        return head
    return function


def parse_samples(text):
    """(exe, modules, pcs, dropped) from the sampler's output, where each
    module is (start, end, bias, path), sorted by start."""
    exe, modules, pcs, dropped = "", [], [], 0
    lines = iter(text.splitlines())
    for line in lines:
        if line.startswith("exe "):
            exe = line[4:]
        elif line.startswith("module "):
            bias, lo, hi, *path = line[7:].split(" ", 3)
            modules.append((int(lo, 16), int(hi, 16), int(bias, 16), path[0] if path else ""))
        elif line.startswith("samples "):
            dropped = int(line.split()[3], 16)
            pcs = [int(x, 16) for x in lines if x]
    modules.sort()
    return exe, modules, pcs, dropped


def module_at(modules, pc):
    """Index of the loaded module whose address range holds `pc`, or
    None."""
    i = bisect.bisect_right([m[0] for m in modules], pc) - 1
    if i >= 0 and pc < modules[i][1]:
        return i
    return None


def tables(by_function, total, dropped, top):
    """The markdown report: shares by crate, by workspace module and by
    function. `by_function` counts samples per (function, crate)."""
    by_crate, by_module, by_name = Counter(), Counter(), Counter()
    for (function, crate), n in by_function.items():
        by_crate[crate] += n
        by_name[function] += n
        if is_workspace(crate):
            by_module[module_of(function)] += n
    rows = [f"{total} samples" + (f", {dropped} dropped (buffer full)" if dropped else "")]
    for title, counts, limit in (("crate", by_crate, None),
                                 ("workspace module", by_module, None),
                                 (f"function (top {top})", by_name, top)):
        rows += ["", f"| {title} | samples | share |", "|---|---:|---:|"]
        for key, n in counts.most_common(limit):
            key = f"`{key}`" if title.startswith("function") else key
            rows.append(f"| {key} | {n} | {100 * n / total:.1f}% |")
    return "\n".join(rows), by_crate


# ---- running and symbolizing ----

def symbolize(exe, addresses):
    """{file address: [inline frames]} for the executable's addresses."""
    if not addresses:
        return {}
    text = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", exe],
        input="\n".join(f"{a:#x}" for a in addresses), capture_output=True,
        text=True, check=True).stdout
    return parse_addr2line(text)


def report(text, top):
    exe, modules, pcs, dropped = parse_samples(text)
    if not pcs:
        return None, "no samples: did the program run under the sampler?"
    exe_module = next((i for i, m in enumerate(modules) if m[3] == ""), None)
    at = []
    for pc in pcs:
        i = module_at(modules, pc)
        at.append((i, pc - modules[i][2] if i is not None else pc))
    frames = symbolize(exe, sorted({a for i, a in at if i == exe_module}))
    by_function = Counter()
    for i, a in at:
        if i is None:
            function, crate = "??", "??"
        elif i == exe_module:
            function, crate = attribute(frames.get(a, []))
        else:
            crate = f"[{os.path.basename(modules[i][3])}]"
            function = crate
        by_function[(function, crate)] += 1
    text, by_crate = tables(by_function, len(pcs), dropped, top)
    return by_crate, text


def run(command, samples_file):
    subprocess.run(["cargo", "build", "--quiet", "--release", "--offline",
                    "--manifest-path", os.path.join(SAMPLER, "Cargo.toml")],
                   check=True)
    env = dict(os.environ, LD_PRELOAD=LIBRARY, LP_PROFILE_OUT=samples_file)
    status = subprocess.run(command, env=env, stdout=sys.stderr).returncode
    if status != 0:
        sys.exit(f"profile: {' '.join(command)} exited with {status}")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--require", action="append", default=[],
                    metavar="CRATE:PCT")
    ap.add_argument("command", nargs="+")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "samples.txt")
        run(args.command, path)
        with open(path) as f:
            text = f.read()
    by_crate, out = report(text, args.top)
    print(out)
    if by_crate is None:
        sys.exit(1)
    total = sum(by_crate.values())
    failed = False
    for req in args.require:
        crate, pct = req.rsplit(":", 1)
        share = 100 * by_crate[crate] / total
        ok = share >= float(pct)
        failed |= not ok
        print(f"require {crate} >= {pct}%: {share:.1f}% {'ok' if ok else 'FAILED'}",
              file=sys.stderr)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
