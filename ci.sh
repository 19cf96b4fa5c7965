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
  # BENCH_kernel.json at the workspace root. The saturated event-kernel
  # number is gated against the committed baseline: the incremental
  # scheduler index is the whole point of that path, so a >10% drop
  # fails CI.
  step "kernel throughput bench (with saturated-attack regression gate)"
  extract_cps() {
    awk -F'"cycles_per_sec": ' "/$1\\/$2/ {gsub(/[^0-9.]/, \"\", \$2); print \$2}" BENCH_kernel.json
  }
  baseline_cps=""
  if [[ -f BENCH_kernel.json ]]; then
    baseline_cps=$(extract_cps saturated_attack event)
  fi
  cargo bench --bench kernel_throughput
  new_cps=$(extract_cps saturated_attack event)
  if [[ -n "$baseline_cps" ]]; then
    awk -v new="$new_cps" -v old="$baseline_cps" 'BEGIN {
      if (new + 0 < 0.9 * old) {
        printf "FAIL: saturated_attack/event regressed: %.0f < 90%% of committed baseline %.0f cycles/sec\n", new, old
        exit 1
      }
      printf "saturated_attack/event: %.0f cycles/sec (committed baseline %.0f, gate 90%%)\n", new, old
    }'
  else
    echo "no committed BENCH_kernel.json baseline; regression gate skipped"
  fi

  # Metrics-overhead gate: the same saturated-attack run with the
  # observability sink enabled (MOPAC_METRICS=1, writes
  # BENCH_kernel_metrics.json) must stay within 10% of the metrics-off
  # number measured just above, in this run on this host — the sink's
  # enabled cost is bounded, and its disabled cost is zero by the
  # bit-identity suite above.
  step "kernel throughput bench with metrics sink (overhead gate)"
  extract_metrics_cps() {
    awk -F'"cycles_per_sec": ' "/$1\\/$2/ {gsub(/[^0-9.]/, \"\", \$2); print \$2}" BENCH_kernel_metrics.json
  }
  MOPAC_METRICS=1 cargo bench --bench kernel_throughput
  metrics_cps=$(extract_metrics_cps saturated_attack event)
  awk -v new="$metrics_cps" -v old="$new_cps" 'BEGIN {
    if (new + 0 < 0.9 * old) {
      printf "FAIL: saturated_attack/event with metrics enabled: %.0f < 90%% of metrics-off %.0f cycles/sec (same run)\n", new, old
      exit 1
    }
    printf "saturated_attack/event with metrics: %.0f cycles/sec (metrics-off %.0f in this run, gate 90%%)\n", new, old
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

  # Flip-plane zero-cost gate: with the victim-data plane disabled
  # (every committed config), all engines × both kernels must stay
  # byte-identical to the committed goldens in
  # tests/goldens/bit_identity.txt — snapshot bytes included, so the
  # plane's disabled cost is provably zero.
  step "flip-disabled bit-identity goldens (release)"
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
  # (every 32 REF windows) must cost < 5% wall-clock.
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
