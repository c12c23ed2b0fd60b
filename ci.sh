#!/usr/bin/env bash
# The deterministic test wall: everything CI runs, runnable locally.
#
#   ./ci.sh
#
# Requires only a Rust toolchain — the workspace builds with zero
# registry dependencies, so every step runs with --offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline >/dev/null

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test"
cargo test -q --offline

echo "==> gcbench (the repo benchmark) builds and its tests pass"
# gcbench/ is a workspace of its own that imports the crates' public
# API by path; building it here means an API trim that breaks the
# benchmark fails CI rather than the benchmark run.
cargo build --release --offline --manifest-path gcbench/Cargo.toml
cargo test --release --offline --manifest-path gcbench/Cargo.toml

echo "==> metrics sidecar smoke (fig15, --jobs 1 vs --jobs 8)"
SIDECAR_DIR=$(mktemp -d)
trap 'rm -rf "$SIDECAR_DIR"' EXIT
./target/release/experiments --quick --jobs 1 --out "$SIDECAR_DIR/j1" fig15 >/dev/null
./target/release/experiments --quick --jobs 8 --out "$SIDECAR_DIR/j8" fig15 >/dev/null
test -s "$SIDECAR_DIR/j1/fig15.metrics.json"
python3 -c "import json,sys; json.load(open(sys.argv[1]))" \
    "$SIDECAR_DIR/j1/fig15.metrics.json" 2>/dev/null \
    || grep -q '"schema": "tracegc-metrics-v1"' "$SIDECAR_DIR/j1/fig15.metrics.json"
cmp "$SIDECAR_DIR/j1/fig15.metrics.json" "$SIDECAR_DIR/j8/fig15.metrics.json"

echo "==> pacing equivalence (fastforward vs lockstep, outputs byte-identical)"
# The event-driven fast-forward scheduler must be invisible in every
# output: same CSVs, same metrics sidecars, bit for bit, as the
# cycle-by-cycle lockstep reference (tests/engine_equivalence.rs pins
# the same property per driver; this gate pins it end-to-end through
# the experiment registry).
./target/release/experiments --quick --sched fastforward \
    --out "$SIDECAR_DIR/pace_ff" fig15 fig20 conc >/dev/null
./target/release/experiments --quick --sched lockstep \
    --out "$SIDECAR_DIR/pace_ls" fig15 fig20 conc >/dev/null
for f in fig15.csv fig15.metrics.json fig20.csv fig20.metrics.json \
         conc.csv conc.metrics.json; do
    cmp "$SIDECAR_DIR/pace_ff/$f" "$SIDECAR_DIR/pace_ls/$f"
done

echo "==> paper calibration gate (experiments --calibrate on committed results/)"
# The committed results/ (scale 0.25) must conform to the paper's
# numbers: every tolerance band and trend assertion in
# crates/harness/src/calib.rs, exit 0 or the build fails. Run in a
# scratch copy so the gate also proves the report is byte-identical to
# the committed results/calibration.json without dirtying the tree.
mkdir -p "$SIDECAR_DIR/calib_committed"
cp results/*.csv results/*.metrics.json "$SIDECAR_DIR/calib_committed/"
./target/release/experiments --calibrate --out "$SIDECAR_DIR/calib_committed"
cmp "$SIDECAR_DIR/calib_committed/calibration.json" results/calibration.json
# Violations must exit 4 (an empty corpus fails every check).
mkdir -p "$SIDECAR_DIR/calib_empty"
rc=0
./target/release/experiments --calibrate --out "$SIDECAR_DIR/calib_empty" >/dev/null 2>&1 || rc=$?
test "$rc" -eq 4

echo "==> faultsweep smoke (golden scale; must degrade deterministically, exit 2)"
# At the golden scale the sweep always hits at least one fallback, so
# the exit-code contract (0 clean / 2 degraded / 3 failed) is testable:
# anything but 2 here means the fault pipeline or the exit mapping broke.
rc=0
./target/release/experiments --scale 0.015 --pauses 1 --jobs 1 \
    --out "$SIDECAR_DIR/fs1" faultsweep >/dev/null 2>&1 || rc=$?
test "$rc" -eq 2
rc=0
./target/release/experiments --scale 0.015 --pauses 1 --jobs 8 \
    --out "$SIDECAR_DIR/fs8" faultsweep >/dev/null 2>&1 || rc=$?
test "$rc" -eq 2
cmp "$SIDECAR_DIR/fs1/faultsweep.csv" "$SIDECAR_DIR/fs8/faultsweep.csv"
cmp "$SIDECAR_DIR/fs1/faultsweep.metrics.json" "$SIDECAR_DIR/fs8/faultsweep.metrics.json"
cmp "$SIDECAR_DIR/fs1/faultsweep.csv" tests/golden/faultsweep.csv
# Fault injection (traps, retries, fallbacks) under lockstep must
# reproduce the fast-forward run above byte for byte.
rc=0
./target/release/experiments --scale 0.015 --pauses 1 --jobs 1 --sched lockstep \
    --out "$SIDECAR_DIR/fs_ls" faultsweep >/dev/null 2>&1 || rc=$?
test "$rc" -eq 2
cmp "$SIDECAR_DIR/fs_ls/faultsweep.csv" "$SIDECAR_DIR/fs1/faultsweep.csv"
cmp "$SIDECAR_DIR/fs_ls/faultsweep.metrics.json" "$SIDECAR_DIR/fs1/faultsweep.metrics.json"

echo "==> heapscale smoke (golden cmp)"
# The production-heap-size sweep at the golden scale: bytes must match
# the committed goldens.
./target/release/experiments --scale 0.015 --pauses 1 --jobs 1 \
    --out "$SIDECAR_DIR/hs1" heapscale >/dev/null
cmp "$SIDECAR_DIR/hs1/heapscale.csv" tests/golden/heapscale.csv
cmp "$SIDECAR_DIR/hs1/heapscale.metrics.json" tests/golden/heapscale.metrics.json

echo "==> fleet smoke (golden cmp + pacing cross + exit-code contract)"
# Multi-tenant serving at the golden scale: bytes must match the
# committed goldens and be invariant to the scheduler pacing. Clean
# fleets exit 0; with injected faults tenants degrade to the software
# fallback (exit 2) but never fail the differential reachability check
# (which would exit 3).
./target/release/experiments --scale 0.015 --pauses 1 --jobs 1 \
    --out "$SIDECAR_DIR/fl1" fleet >/dev/null
for f in fleet_0.csv fleet_1.csv fleet.metrics.json; do
    cmp "$SIDECAR_DIR/fl1/$f" "tests/golden/$f"
done
./target/release/experiments --scale 0.015 --pauses 1 --sched lockstep \
    --out "$SIDECAR_DIR/fl_ls" fleet >/dev/null
for f in fleet_0.csv fleet_1.csv fleet.metrics.json; do
    cmp "$SIDECAR_DIR/fl1/$f" "$SIDECAR_DIR/fl_ls/$f"
done
rc=0
./target/release/experiments --scale 0.015 --pauses 1 --fault-rate 1e-3 --fault-seed 7 \
    --out "$SIDECAR_DIR/fl_fault" fleet >/dev/null 2>&1 || rc=$?
test "$rc" -eq 2

echo "==> heapscale paper-scale run under the host-RSS ceiling (~5 min single-core)"
# The acceptance run of the memory-lean representation (DESIGN.md §11):
# the paper-exact 200 MB heap and the >=1 GB-live-set server LRU, end
# to end (mark + sweep) at --scale 1.0. The ceiling is stated as a
# multiple of the simulated footprint: the server row's sparse physical
# memory holds ~2.2 GB of resident chunks (the deterministic
# resident-mb column in heapscale.csv), and host peak RSS must stay
# under 3x that — generation churn, page tables, the spill region and
# allocator retention across rows live inside the multiple. Exit 5
# (from --rss-ceiling-mb) means the representation regressed.
./target/release/experiments --scale 1.0 --pauses 1 --rss-ceiling-mb 6786 \
    --out "$SIDECAR_DIR/hs_full" heapscale >/dev/null

echo "ci.sh: all green"
