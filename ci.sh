#!/usr/bin/env bash
# Local CI gate: formatting, lints, build, tests, the persistency
# mutation suite, and the repo benchmark against BASE on this host.
#   ./ci.sh [BASE]    BASE defaults to HEAD~1, the parent commit.
set -euo pipefail
cd "$(dirname "$0")"
BASE="${1:-HEAD~1}"

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (-D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test -q --workspace

echo "== lp-check mutation suite (R8 parity-before-data rig included) =="
cargo run --release -q -p lp-check -- --mutations | tee /tmp/lp_check_muts.txt
grep -q "parity_before_data.*flagged" /tmp/lp_check_muts.txt \
  || { echo "R8 mutation rig (parity_before_data) missing or not flagged"; exit 1; }
rm -f /tmp/lp_check_muts.txt

echo "== lp-crashmc smoke: kernels recover on every sampled crash state (multi-threaded) =="
cargo run --release -q -p lp-crashmc -- --budget smoke --threads 8

echo "== lp-crashmc smoke: every mutation rig is caught under its own fault class (multi-threaded) =="
cargo run --release -q -p lp-crashmc -- --mutations --budget exhaustive --threads 8

echo "== lp-crashmc smoke: seeded fault campaign (torn+media+nested), deterministic across thread counts =="
cargo run --release -q -p lp-crashmc -- --budget smoke --faults torn,media,nested --seed 42 --threads 2 > /tmp/lp_faults_t2.txt
cargo run --release -q -p lp-crashmc -- --budget smoke --faults torn,media,nested --seed 42 --threads 4 > /tmp/lp_faults_t4.txt
cmp /tmp/lp_faults_t2.txt /tmp/lp_faults_t4.txt \
  || { echo "fault campaign reports differ across thread counts"; exit 1; }
rm -f /tmp/lp_faults_t2.txt /tmp/lp_faults_t4.txt

echo "== lp-crashmc smoke: LazyParity repair ladder (single-line poisons repair, bursts escalate, 0 corrupt) =="
# Exit status enforces 0 corrupt / 0 stuck; the grep-derived sum enforces
# that rung-1 parity repairs actually fired (the ladder is exercised, not
# bypassed), and the cmp that the report is byte-identical across thread
# counts.
cargo run --release -q -p lp-crashmc -- --budget smoke --scheme lazy-parity --faults media --seed 42 --threads 2 > /tmp/lp_par_media_t2.txt
cargo run --release -q -p lp-crashmc -- --budget smoke --scheme lazy-parity --faults media --seed 42 --threads 4 > /tmp/lp_par_media_t4.txt
cmp /tmp/lp_par_media_t2.txt /tmp/lp_par_media_t4.txt \
  || { echo "LazyParity media reports differ across thread counts"; exit 1; }
par_repairs=$(awk '{for(i=1;i<NF;i++) if($i=="repair") s+=$(i+1)} END{print s+0}' /tmp/lp_par_media_t2.txt)
[ "$par_repairs" -gt 0 ] \
  || { echo "LazyParity media campaign performed no rung-1 repairs"; exit 1; }
cargo run --release -q -p lp-crashmc -- --budget smoke --scheme lazy-parity --faults media-burst --seed 42 --threads 4 > /tmp/lp_par_burst.txt
par_escalations=$(awk '{for(i=1;i<NF;i++) if($i=="escalated") s+=$(i+1)} END{print s+0}' /tmp/lp_par_burst.txt)
[ "$par_escalations" -gt 0 ] \
  || { echo "LazyParity burst campaign never escalated past rung 1"; exit 1; }
rm -f /tmp/lp_par_media_t2.txt /tmp/lp_par_media_t4.txt /tmp/lp_par_burst.txt

echo "== lp-crashmc smoke: dedup on/off must not change the report, only the wall-clock =="
cargo run --release -q -p lp-crashmc -- --budget smoke --seed 42 --threads 4 --dedup on  > /tmp/lp_dedup_on.txt
cargo run --release -q -p lp-crashmc -- --budget smoke --seed 42 --threads 4 --dedup off > /tmp/lp_dedup_off.txt
cmp /tmp/lp_dedup_on.txt /tmp/lp_dedup_off.txt \
  || { echo "reports differ between --dedup on and --dedup off"; exit 1; }
rm -f /tmp/lp_dedup_on.txt /tmp/lp_dedup_off.txt

echo "== lp-crashmc smoke: thread scaling must not regress (threads-8 vs threads-1) =="
# The host may be a single-core container, so this gate cannot demand a
# speedup; it catches pathological serialization (a contended sink or a
# starved pool would push threads-8 well past threads-1). Slack: 1.5x.
scale_t0=$(date +%s%N)
cargo run --release -q -p lp-crashmc -- --budget smoke --seed 42 --threads 1 > /tmp/lp_scale_t1.txt
scale_t1_ms=$(( ($(date +%s%N) - scale_t0) / 1000000 ))
scale_t0=$(date +%s%N)
cargo run --release -q -p lp-crashmc -- --budget smoke --seed 42 --threads 8 > /tmp/lp_scale_t8.txt
scale_t8_ms=$(( ($(date +%s%N) - scale_t0) / 1000000 ))
echo "smoke wall: threads-1 ${scale_t1_ms}ms, threads-8 ${scale_t8_ms}ms"
[ $(( scale_t8_ms * 2 )) -le $(( scale_t1_ms * 3 )) ] \
  || { echo "threads-8 wall exceeds 1.5x threads-1: parallel engine is serializing"; exit 1; }
cmp /tmp/lp_scale_t1.txt /tmp/lp_scale_t8.txt \
  || { echo "reports differ between threads 1 and 8"; exit 1; }
rm -f /tmp/lp_scale_t1.txt /tmp/lp_scale_t8.txt

echo "== lp-lint: clean tree must have zero findings (S1-S7, W1-W4), within the wall-time budget =="
lint_t0=$(date +%s%N)
cargo run --release -q -p lp-lint -- --all
lint_ms=$(( ($(date +%s%N) - lint_t0) / 1000000 ))
echo "lp-lint --all wall time: ${lint_ms}ms (budget 2000ms)"
[ "$lint_ms" -le 2000 ] || { echo "lp-lint exceeded its 2s wall-time budget"; exit 1; }

echo "== lp-lint: differential vs the mutation-rig registry + efficiency fixtures (control clean, S7 twin included) =="
cargo run --release -q -p lp-lint -- --differential | tee /tmp/lp_lint_diff.txt
grep -q "parity_before_data.*S7" /tmp/lp_lint_diff.txt \
  || { echo "S7 rig (parity_before_data) missing from the differential"; exit 1; }
rm -f /tmp/lp_lint_diff.txt

echo "== perfbench tests: manifest contract, traced-run nesting, seed determinism =="
# perfbench builds against lp-sim, lp-core, lp-kernels and lp-crashmc by
# path, so an API change in those crates must keep its own tests passing.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "== tools/test_ab.py: the A/B runner's verdict rules =="
python3 tools/test_ab.py

echo "== perfbench A/B vs $BASE on this host: 3 pairs per workload, --seconds 0 =="
# Seed 0 of the change side is the pin check: perfbench compares every
# Bench-scale cell's rec_cycles / memops / exec_cycles, and each census or
# faults case's states_checked / dedup_hits plus a clean report, with
# perfbench/pins.txt, and a run with a drifted or failed cell is not
# correct. ab.py refuses any run that is not correct and fails on a metric
# worse than the parent's by more than its BENCHMARK.json bound.
python3 tools/ab.py "$BASE" --pairs 3 --seconds 0

echo "ci.sh: all gates passed"
