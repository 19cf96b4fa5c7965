#!/usr/bin/env bash
# Offline-friendly CI gate for the MoPAC reproduction workspace.
#
#   ./ci.sh            # build + test + lint
#   ./ci.sh --fast     # skip the release build (debug test run only)
#
# Everything runs with `--offline`-compatible settings: no step fetches
# from a registry, so the script works in the sealed build container.
set -euo pipefail
cd "$(dirname "$0")"

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

step() { printf '\n==> %s\n' "$*"; }

if [[ $fast -eq 0 ]]; then
  step "cargo build --release (tier-1)"
  cargo build --release
fi

step "cargo test -q (tier-1)"
cargo test -q

if [[ $fast -eq 0 ]]; then
  # Kernel-equivalence gate: the event-driven time-skipping kernel must
  # produce bit-identical results to the lockstep reference across
  # mitigations, page policies, and fault plans, and the skipping
  # attack driver must match its one-cycle-step loop for every engine
  # and attack pattern. Run in release so the matrix finishes quickly;
  # the debug run above already covers it at -O0 with debug assertions.
  step "kernel equivalence suite (release)"
  cargo test -q -p mopac-sim --test kernel_equivalence --test attack_equivalence --release

  # Throughput trend line: simulated cycles/sec for both kernels on
  # idle-heavy, saturated and mixed-phase workloads; writes
  # target/BENCH_kernel.json and leaves the committed BENCH_kernel.json
  # alone (copy the run's file over it to move the baseline on
  # purpose). Two gates, both on ratios timed in alternating pairs
  # within this run, so host speed cancels out of them:
  # - the saturated-attack event/lockstep ratio: the incremental
  #   scheduler index is the whole point of that path, so a ratio more
  #   than 10% below the committed one fails CI;
  # - the saturated-attack metrics-on/metrics-off ratio (event kernel):
  #   the sink's enabled cost is bounded at 10%, and its disabled cost
  #   is zero by the bit-identity suite above.
  step "kernel throughput bench (event/lockstep and metrics-overhead ratio gates)"
  extract_ratio() {
    awk -F'"ratio": ' "/\"saturated_attack\\/$1\"/ {gsub(/[^0-9.]/, \"\", \$2); print \$2}" "$2"
  }
  baseline_ratio=""
  if [[ -f BENCH_kernel.json ]]; then
    baseline_ratio=$(extract_ratio event_over_lockstep BENCH_kernel.json)
  fi
  cargo bench --bench kernel_throughput
  new_ratio=$(extract_ratio event_over_lockstep target/BENCH_kernel.json)
  if [[ -n "$baseline_ratio" ]]; then
    awk -v new="$new_ratio" -v old="$baseline_ratio" 'BEGIN {
      if (new + 0 < 0.9 * old) {
        printf "FAIL: saturated_attack event/lockstep ratio regressed: %.3f < 90%% of committed %.3f\n", new, old
        exit 1
      }
      printf "saturated_attack event/lockstep ratio: %.3f (committed %.3f, gate 90%%)\n", new, old
    }'
  else
    echo "no committed saturated_attack ratio in BENCH_kernel.json; regression gate skipped"
  fi
  metrics_ratio=$(extract_ratio metrics_over_plain target/BENCH_kernel.json)
  awk -v r="$metrics_ratio" 'BEGIN {
    if (r == "" || r + 0 < 0.9) {
      printf "FAIL: saturated_attack/event with metrics enabled runs at %s of the metrics-off throughput (gate 0.9, median of same-run pairs)\n", r
      exit 1
    }
    printf "saturated_attack/event metrics-on/off throughput ratio: %.3f (gate 0.9)\n", r
  }'

  # Security gate: every engine in the mitigation registry versus the
  # attack battery at a reduced cycle budget; any oracle violation
  # fails the binary (exit 1). The bank-scope `practical` engine must
  # be present in the matrix — if it ever drops out of the registry
  # the suite would pass vacuously, so its absence fails here.
  step "registry attack suite (release, reduced budget)"
  MOPAC_ATTACK_CYCLES=250000 cargo run --release -q -p mopac-bench --bin attack_suite
  if ! grep -q '^practical,' EXPERIMENTS-data/attack_suite.csv; then
    echo "FAIL: 'practical' missing from the attack-suite matrix"
    exit 1
  fi

  # Performance trend line: slowdown vs baseline per registered
  # engine (plus blocked-bank cycles under a fixed ALERT-pressure
  # attack); writes BENCH_mitigations.json at the workspace root. The
  # committed file is generated at this exact budget and diff-checked:
  # a change means either a real perf/recovery regression or a stale
  # committed baseline — regenerate with MOPAC_INSTRS=40000 and
  # commit the new file deliberately.
  step "mitigation slowdown bench (reduced budget, diff-checked)"
  MOPAC_INSTRS=40000 cargo run --release -q -p mopac-bench --bin bench_mitigations
  if ! git diff --quiet -- BENCH_mitigations.json; then
    echo "FAIL: BENCH_mitigations.json drifted from the committed baseline"
    git diff -- BENCH_mitigations.json | head -20
    exit 1
  fi

  # Attack-success sweep: the victim-data flip plane's verdict per
  # engine × T_RH distribution × ECC mode at a fixed cycle budget;
  # writes BENCH_attack_success.json at the workspace root and
  # diff-checks it like BENCH_mitigations.json. The binary itself
  # asserts the ECC monotonicity contract (SEC never observes *more*
  # corrupted reads than no ECC at the same seed) and panics on drift.
  step "attack-success sweep (flip plane, diff-checked)"
  cargo run --release -q -p mopac-bench --bin attack_success
  if ! git diff --quiet -- BENCH_attack_success.json; then
    echo "FAIL: BENCH_attack_success.json drifted from the committed baseline"
    git diff -- BENCH_attack_success.json | head -20
    exit 1
  fi

  # Bit-identity goldens. With the victim-data plane disabled (every
  # committed config), all engines × both kernels must stay
  # byte-identical to tests/goldens/bit_identity.txt — snapshot bytes
  # included, so the plane's disabled cost is provably zero. With the
  # plane enabled, attack runs with and without the checker must match
  # tests/goldens/flip_bit_identity.txt: snapshot bytes holding each
  # bank's one disturbance store, its oracle (with the checker) and its
  # flip plane's victim words, plus the oracle and flip verdicts.
  step "bit-identity goldens, flip plane off and on (release)"
  cargo test -q -p mopac-sim --test bit_identity_goldens --release

  # Crash-safety gate 1: kill-and-resume. Run the checkpointed fault
  # campaign, SIGKILL it mid-flight, resume from the checkpoint, and
  # require the final CSV to be byte-identical to an uninterrupted run.
  step "checkpoint kill-and-resume gate"
  ckpt_root=$(mktemp -d)
  trap 'rm -rf "$ckpt_root"' EXIT
  fc=./target/release/fault_campaign
  MOPAC_FAULT_INSTRS=300000 MOPAC_DATA_DIR="$ckpt_root/ref" "$fc" >/dev/null
  MOPAC_FAULT_INSTRS=300000 MOPAC_DATA_DIR="$ckpt_root/run" \
    MOPAC_CKPT_DIR="$ckpt_root/ckpt" "$fc" >/dev/null 2>&1 &
  fc_pid=$!
  sleep 1
  kill -9 "$fc_pid" 2>/dev/null || true
  wait "$fc_pid" 2>/dev/null || true
  committed=$(grep -c . "$ckpt_root/ckpt/cells.log" 2>/dev/null || echo 0)
  MOPAC_FAULT_INSTRS=300000 MOPAC_DATA_DIR="$ckpt_root/run" \
    MOPAC_CKPT_DIR="$ckpt_root/ckpt" "$fc" >/dev/null
  if ! cmp -s "$ckpt_root/ref/fault_campaign.csv" "$ckpt_root/run/fault_campaign.csv"; then
    echo "FAIL: resumed campaign CSV differs from the uninterrupted run"
    diff "$ckpt_root/ref/fault_campaign.csv" "$ckpt_root/run/fault_campaign.csv" | head
    exit 1
  fi
  echo "kill-and-resume OK: CSVs byte-identical ($committed cell(s) survived the SIGKILL)"

  # Crash-safety gate 2: periodic snapshots on a saturated attack run
  # at the paper geometry (every 32 REF windows) must cost < 5%
  # wall-clock.
  step "snapshot overhead gate (saturated attack, < 5%)"
  overhead=$(MOPAC_ATTACK_CYCLES=20000000 ./target/release/snapshot_overhead \
    | tee /dev/stderr | awk -F': ' '/snapshot_overhead_pct/ {print $2}')
  awk -v o="$overhead" 'BEGIN {
    if (o + 0 >= 5.0) {
      printf "FAIL: snapshot overhead %.2f%% >= 5%%\n", o
      exit 1
    }
    printf "snapshot overhead %.2f%% (gate: < 5%%)\n", o
  }'

  # Examples must keep building (they are the documented entry points).
  step "cargo build --release --examples"
  cargo build --release --examples

  # perfbench (the benchmark BENCHMARK.json declares) is a workspace of
  # its own, so no step above builds it: an API change in the simulator
  # crates could break it unseen. Build it and run its tests against
  # this tree.
  step "perfbench build + tests (release, own workspace)"
  cargo test --offline -q --release --manifest-path perfbench/Cargo.toml

  # Docs gate: rustdoc must build warning-free (broken intra-doc links
  # in the engine/registry API surface would land here first).
  step "cargo doc (no-deps, -D warnings)"
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q
fi

# Lint gate. The robustness contract: every library in the workspace
# (mopac, mopac-dram, mopac-memctrl, mopac-sim, mopac-workloads,
# mopac-bench, mopac-analysis) carries no unwrap/expect in non-test
# code — misuse must surface as MopacResult. Each crate opts
# in via `#![warn(clippy::unwrap_used, clippy::expect_used)]` in its
# lib.rs (promoted to errors by -D warnings here); tests and bench
# binaries are exempt via clippy.toml (allow-unwrap-in-tests).
if cargo clippy --version >/dev/null 2>&1; then
  step "cargo clippy (workspace, -D warnings)"
  cargo clippy --workspace --all-targets -- -D warnings
else
  echo "WARNING: cargo clippy not installed; skipping lint gate" >&2
fi

step "OK"
