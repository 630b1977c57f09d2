#!/usr/bin/env bash
# Local CI gate: formatting, lints, build, tests, and the persistency
# mutation suite. Run from the repo root before sending a PR.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

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

echo "== lp-lint: cost model vs measured flush/fence counters, all kernels x schemes =="
cargo run --release -q -p lp-lint -- --cost-check

echo "== perfbench pins: every recover/kernels cell and census/faults case on its pinned numbers =="
# One pass per workload at seed 0 (--seconds 0). perfbench checks each
# Bench-scale cell's rec_cycles / memops / exec_cycles, and each census
# or faults case's states_checked / dedup_hits plus a clean report,
# against perfbench/pins.txt and counts a cell or case that drifts (or
# fails to verify) as failed; the final JSON line must report none.
for wl in recover kernels census faults; do
  cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload "$wl" --seed 0 --seconds 0 --trace 0 | tail -n 1 > "/tmp/lp_pins_$wl.json"
  grep -q '"failed": 0' "/tmp/lp_pins_$wl.json" \
    || { echo "perfbench $wl: a cell or case failed or drifted from its pins"; cat "/tmp/lp_pins_$wl.json"; exit 1; }
done
rm -f /tmp/lp_pins_recover.json /tmp/lp_pins_kernels.json /tmp/lp_pins_census.json /tmp/lp_pins_faults.json

echo "== perf baseline: refresh results/BENCH_10.json + regression + cycle-invariance check vs BENCH_9 =="
# --check compares fresh best-of-reps rates (units / wall_min — robust
# to scheduler noise on millisecond cells) against the stored BENCH_9
# baseline and exits nonzero past tolerance (best rate >= 0.5x baseline,
# 0.6x for the steadier single-threaded sim/ cells; speedup_vs_1 >=
# baseline - 0.5, skipped when host_cpus differ from the baseline host).
# It is also the cycle-invariance gate: the sim/ cells' sim_cycles and
# memops must match the stored baseline EXACTLY (the timing model is
# pinned; any drift is a semantic regression, not noise), and each sim
# cell must finish within its wall-time budget. The BENCH_10 refresh
# adds a sim/tmm/LP+par(crc32) cell (new vs BENCH_9 — informational this
# round, pinned from the next). JSON to stdout; check verdict to stderr.
cargo run --release -q -p lp-bench --bin perf_baseline -- --quick --check results/BENCH_9.json > /dev/null

echo "ci.sh: all gates passed"
