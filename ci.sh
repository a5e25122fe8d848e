#!/usr/bin/env bash
# Repository CI gate: formatting, lints, release build, full test suite.
# Run from the repo root. Fails fast on the first broken stage.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps"
# Our packages only: the vendored registry stand-ins don't doc cleanly.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet \
  -p sgx-preloading -p sgx-preload-core -p sgx-fleet -p sgx-bench \
  -p sgx-kernel -p sgx-epc -p sgx-dfp -p sgx-sip -p sgx-workloads \
  -p sgx-observer -p sgx-sim

echo "==> cargo build --release"
cargo build --release

echo "==> chaos smoke"
# The fault-injection layer's graceful-degradation contract, end to end:
# the release CLI must hold the invariants under the heavy preset.
./target/release/sgx-preload chaos --bench microbenchmark --scheme dfp \
  --scale 48 --preset heavy --chaos-seed 5 --max-slowdown 3.0 >/dev/null

echo "==> contention campaign"
# The small multi-tenant contention campaign: victim solo, then co-run
# under the fair 1:1 policy. Seeds the perf trajectory with wall-clock
# and per-enclave cycle totals.
mkdir -p results
./target/release/sgx-preload contend --scale 32 --scheme dfp \
  --json-out results/BENCH_contention.json >/dev/null

echo "==> timeline smoke"
# The causal-span pipeline end to end: the release CLI replays a run with
# span lineage, checks the invariants (parents resolve, one terminal
# run-end, attribution buckets sum to the total), and writes the chrome
# trace + gauge series + summary JSON with wall-clock and span counts.
mkdir -p results
./target/release/sgx-preload timeline --bench microbenchmark --scheme dfp \
  --scale 48 -n 0 --attr \
  --chrome-out results/BENCH_timeline.chrome.json \
  --series-out results/BENCH_timeline.series.csv \
  --json-out results/BENCH_timeline.json >/dev/null
# The exported chrome trace must be valid JSON and the summary must report
# a reconciled attribution with zero violations.
python3 - <<'EOF'
import json
with open("results/BENCH_timeline.chrome.json") as f:
    trace = json.load(f)
assert trace["traceEvents"], "empty chrome trace"
with open("results/BENCH_timeline.json") as f:
    summary = json.load(f)
assert summary["reconciles"] is True, summary
assert summary["violations"] == [], summary
assert summary["run_ends"] == 1, summary
attr = summary["attribution"]
assert sum(attr.values()) == summary["total_cycles"], attr
print(f"timeline OK: {summary['events']} events, {summary['spans']} spans, "
      f"{len(trace['traceEvents'])} chrome entries")
EOF

echo "==> throughput"
# The hot-path engine's headline number: wall-clock events/sec on the
# timeline microbenchmark cell (Chrome-trace sink attached). The stage
# fails if the engine falls back under 10x the pre-rewrite baseline.
mkdir -p results
./target/release/sgx-preload throughput --bench microbenchmark --scheme dfp \
  --scale 48 --iters 5 --json-out results/BENCH_throughput.json
python3 - <<'EOF'
import json
with open("results/BENCH_throughput.json") as f:
    t = json.load(f)
assert t["events"] > 0 and t["pages"] > 0, t
floor = 10.0 * t["baseline_events_per_sec"]
assert t["events_per_sec"] >= floor, (
    f"throughput regression: {t['events_per_sec']:.0f} events/sec is below "
    f"10x the pre-rewrite baseline ({floor:.0f})")
print(f"throughput OK: {t['events_per_sec']:.0f} events/sec "
      f"({t['speedup_vs_baseline']:.1f}x baseline), "
      f"{t['simulated_pages_per_sec']:.0f} simulated-pages/sec")
EOF

echo "==> fleet smoke"
# The fleet simulator end to end: the golden 4x3 fleet must produce
# byte-identical canonical JSON at --jobs 1 and --jobs 4, match the
# pinned golden, and balance its books (zero accounting residual).
# Writes wall-clock hosts/sec, requests/sec and p99 SLO latency.
mkdir -p results
FLEET_FLAGS=(--hosts 4 --enclaves 3 --fleet-seed 2020 --scale 64
  --arrival bursty:262144x4 --placement least-loaded
  --duration 8388608 --idle-timeout 1048576)
./target/release/sgx-preload fleet "${FLEET_FLAGS[@]}" --jobs 1 \
  --json-out results/fleet_j1.json >/dev/null
./target/release/sgx-preload fleet "${FLEET_FLAGS[@]}" --jobs 4 \
  --json-out results/fleet_j4.json \
  --bench-out results/BENCH_fleet.json >/dev/null
cmp results/fleet_j1.json results/fleet_j4.json
python3 - <<'EOF'
import json
with open("results/fleet_j4.json") as f:
    fleet = json.load(f)
with open("tests/golden/fleet_small.json") as f:
    golden = json.load(f)
assert fleet == golden, "fleet report drifted from tests/golden/fleet_small.json"
assert fleet["accounting_residual"] == 0, fleet["accounting_residual"]
assert fleet["total_cycles"] == sum(h["end_cycles"] for h in fleet["host_reports"])
with open("results/BENCH_fleet.json") as f:
    bench = json.load(f)
assert bench["requests"] == fleet["requests"], bench
assert bench["accounting_residual"] == 0, bench
print(f"fleet OK: {bench['hosts_per_sec']:.0f} hosts/sec, "
      f"{bench['requests_per_sec']:.0f} requests/sec, "
      f"p99 latency {bench['p99_latency_cycles']} cycles "
      f"(SLO {fleet['slo']}, {fleet['slo_violations']} violations, "
      f"{fleet['shed']} shed)")
EOF

echo "==> trace record/convert/replay"
# The compact binary trace format end to end: record a small trace,
# convert .sgxt -> CSV -> .sgxt (must be byte-identical), replay it with
# the source benchmark declared and --diff (the replayed report must
# match the generator run exactly), and write replayed-pages/sec and
# round-trip bytes/access. Then the four workload-diversity families run
# their full scheme grid against the pinned golden.
mkdir -p results
TRACE_DIR=$(mktemp -d)
trap 'rm -rf "$TRACE_DIR"' EXIT
./target/release/sgx-preload trace record --bench kvstore --scale 32 \
  --out "$TRACE_DIR/kv.sgxt" >/dev/null
./target/release/sgx-preload trace convert --in "$TRACE_DIR/kv.sgxt" \
  --out "$TRACE_DIR/kv.csv" >/dev/null
./target/release/sgx-preload trace convert --in "$TRACE_DIR/kv.csv" \
  --out "$TRACE_DIR/kv2.sgxt" >/dev/null
cmp "$TRACE_DIR/kv.sgxt" "$TRACE_DIR/kv2.sgxt"
./target/release/sgx-preload trace replay --trace "$TRACE_DIR/kv.sgxt" \
  --scale 32 --scheme hybrid --source-bench kvstore --diff \
  --bench-out results/BENCH_trace_replay.json >/dev/null
./target/release/sgx-preload campaign --scale 32 \
  --benches kvstore,phase-shift,graph-frontier,ml-inference \
  --json-out "$TRACE_DIR/diverse.json" >/dev/null
python3 - <<'EOF'
import json
with open("results/BENCH_trace_replay.json") as f:
    t = json.load(f)
assert t["accesses"] > 0 and t["trace_bytes"] > 0, t
assert t["replayed_pages_per_sec"] > 0, t
# The binary format must beat CSV's ~14 bytes/access comfortably.
assert t["bytes_per_access"] < 8.0, t
print(f"trace replay OK: {t['accesses']} accesses, "
      f"{t['replayed_pages_per_sec']:.0f} replayed-pages/sec, "
      f"{t['bytes_per_access']:.2f} bytes/access")
EOF
python3 - "$TRACE_DIR/diverse.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
cells = report["cells"]
assert len(cells) == 20, f"expected 4 families x 5 schemes, got {len(cells)}"
families = {c["label"].split("/")[0] for c in cells}
assert families == {"kvstore", "phase-shift", "graph-frontier", "ml-inference"}
print(f"diverse campaign OK: {len(cells)} cells over {sorted(families)}")
EOF

echo "==> predictor zoo ablation"
# The predictor-zoo ablation: every shipped predictor drives the diverse
# campaign over the baseline/DFP-stop/EDMM scheme axes. Each predictor's
# report must be identical at --jobs 1 and --jobs 4 modulo timing
# context; the stage aggregates cells/sec and per-predictor demand-fault
# totals into results/BENCH_predictor_zoo.json.
mkdir -p results
for p in multi-stream next-line stride stride-confident markov leap; do
  for j in 1 4; do
    ./target/release/sgx-preload campaign --scale 32 \
      --benches kvstore,phase-shift,graph-frontier,ml-inference \
      --schemes baseline,dfp-stop,edmm,edmm+dfp-stop \
      --predictor "$p" --jobs "$j" \
      --json-out "$TRACE_DIR/zoo_${p}_j${j}.json" >/dev/null
  done
done
python3 - "$TRACE_DIR" <<'EOF'
import json, sys

trace_dir = sys.argv[1]
predictors = ["multi-stream", "next-line", "stride",
              "stride-confident", "markov", "leap"]

def canonical(path):
    """The report with the timing context (jobs, wall clocks) removed."""
    with open(path) as f:
        report = json.load(f)
    report.pop("jobs", None)
    report.pop("wall_nanos", None)
    for cell in report["cells"]:
        cell.pop("wall_nanos", None)
    return report

zoo, cells_total, wall_total = {}, 0, 0
for p in predictors:
    j1 = canonical(f"{trace_dir}/zoo_{p}_j1.json")
    j4 = canonical(f"{trace_dir}/zoo_{p}_j4.json")
    assert j1 == j4, f"{p}: --jobs 1 and --jobs 4 reports diverged"
    with open(f"{trace_dir}/zoo_{p}_j4.json") as f:
        timed = json.load(f)
    cells = j4["cells"]
    assert cells, f"{p}: empty campaign"
    cells_total += len(cells)
    wall_total += timed["wall_nanos"]
    zoo[p] = {
        "cells": len(cells),
        "demand_faults": sum(c["report"]["faults"] for c in cells),
        "preloads_touched": sum(c["report"]["preloads_touched"] for c in cells),
        "total_cycles": sum(c["report"]["total_cycles"] for c in cells),
    }
bench = {
    "predictors": zoo,
    "cells": cells_total,
    "cells_per_sec": cells_total / (wall_total / 1e9),
}
assert bench["predictors"] and bench["cells"] > 0, bench
with open("results/BENCH_predictor_zoo.json", "w") as f:
    json.dump(bench, f, indent=2, sort_keys=True)
faults = {p: z["demand_faults"] for p, z in zoo.items()}
print(f"predictor zoo OK: {cells_total} cells at "
      f"{bench['cells_per_sec']:.1f} cells/sec; demand faults {faults}")
EOF

echo "==> paper campaign tallies"
# The full 22 x 5 paper grid runs with no sink attached; every cell's event
# tallies come from the kernel itself. The report must be identical at
# --jobs 1 and --jobs 4 once the timing context (jobs, wall clocks) is
# removed, and each cell's tallies must reconcile with its report.
./target/release/sgx-preload campaign --scale 16 --jobs 1 \
  --json-out "$TRACE_DIR/paper_j1.json" >/dev/null
./target/release/sgx-preload campaign --scale 16 --jobs 4 \
  --json-out "$TRACE_DIR/paper_j4.json" >/dev/null
python3 - "$TRACE_DIR" <<'EOF'
import json, sys

trace_dir = sys.argv[1]
for j in (1, 4):
    with open(f"{trace_dir}/paper_j{j}.json") as f:
        report = json.load(f)
    report.pop("jobs", None)
    report.pop("wall_nanos", None)
    for cell in report["cells"]:
        cell.pop("wall_nanos", None)
    with open(f"{trace_dir}/paper_j{j}.canonical.json", "w") as f:
        json.dump(report, f, sort_keys=True)
cells = report["cells"]
assert len(cells) == 110, f"expected 22 benchmarks x 5 schemes, got {len(cells)}"
for c in cells:
    ev, r = c["events"], c["report"]
    assert ev["faults"] == r["faults"], c["label"]
    assert ev["faults_resolved"] == r["faults"], c["label"]
    assert ev["preload_starts"] == r["preloads_started"], c["label"]
    assert ev["run_ends"] == 1, c["label"]
print(f"paper campaign OK: {len(cells)} cells reconcile with their tallies")
EOF
cmp "$TRACE_DIR/paper_j1.canonical.json" "$TRACE_DIR/paper_j4.canonical.json"
# The grid is pinned, not only consistent with itself: the canonical dump
# must hash to the digest recorded in tests/golden/.
python3 - "$TRACE_DIR" <<'EOF'
import hashlib, sys

with open(f"{sys.argv[1]}/paper_j1.canonical.json", "rb") as f:
    got = hashlib.sha256(f.read()).hexdigest()
with open("tests/golden/campaign_paper_s16.sha256") as f:
    want = f.read().split()[0]
assert got == want, f"scale-16 paper grid drifted: sha256 {got}, pinned {want}"
print(f"paper campaign pinned: sha256 {got[:16]}...")
EOF

echo "==> leakage observatory"
# The untrusted-OS leakage grid: all three secret pairs under the
# baseline/DFP/SIP panel plus the per-pair ORAM reference rows. The
# canonical JSON must be byte-identical at --jobs 1 and --jobs 4 and
# match the pinned golden cell-for-cell. The gate is EXPECTED to fire
# (exit 1) on this panel: plain DFP amplifies the dfp-echo pair beyond
# the tolerance — that demonstrated amplification is the stage's point.
mkdir -p results
LEAK_FLAGS=(--scale 64 --campaign-seed 2020 --window 64)
set +e
./target/release/sgx-preload leakage "${LEAK_FLAGS[@]}" --jobs 1 \
  --json-out results/leakage_j1.json >/dev/null 2>&1
leak_j1=$?
./target/release/sgx-preload leakage "${LEAK_FLAGS[@]}" --jobs 4 \
  --json-out results/leakage_j4.json \
  --bench-out results/BENCH_leakage.json >/dev/null 2>&1
leak_j4=$?
set -e
if [ "$leak_j1" -ne 1 ] || [ "$leak_j4" -ne 1 ]; then
  echo "leakage gate was expected to fire (DFP amplifies dfp-echo);" \
       "got exit $leak_j1 (jobs 1) / $leak_j4 (jobs 4)"
  exit 1
fi
cmp results/leakage_j1.json results/leakage_j4.json
python3 - <<'EOF'
import json
with open("results/leakage_j4.json") as f:
    got = json.load(f)
with open("tests/golden/campaign_leakage.json") as f:
    want = json.load(f)
assert got["campaign_seed"] == want["campaign_seed"], got["campaign_seed"]
assert got["cells"] == want["cells"], \
    "leakage grid drifted from tests/golden/campaign_leakage.json"
with open("results/BENCH_leakage.json") as f:
    bench = json.load(f)
assert bench["cells"] == len(got["cells"]), bench
assert bench["obs_events"] > 0 and bench["obs_events_per_sec"] > 0, bench
rows = {r["label"]: r for r in bench["rows"]}
oram = [r for r in bench["rows"] if r["label"].endswith("/oram")]
assert len(oram) == 3, oram
assert all(r["distinguishability"] == 0 for r in oram), oram
# The two directional claims the observatory exists to show.
assert rows["branch-halves/SIP"]["fault_edit"] == 0.0, rows["branch-halves/SIP"]
assert rows["branch-halves/baseline"]["fault_edit"] > 0.5, \
    rows["branch-halves/baseline"]
assert rows["dfp-echo/DFP"]["distinguishability"] > \
    rows["dfp-echo/baseline"]["distinguishability"], rows["dfp-echo/DFP"]
print(f"leakage OK: {bench['cells']} cells, "
      f"{bench['obs_events']} observed events at "
      f"{bench['obs_events_per_sec']:.0f} events/sec; "
      f"SIP masks branch-halves, DFP amplifies dfp-echo, ORAM rows at 0")
EOF

echo "==> cargo test -q"
cargo test --workspace -q

echo "CI OK"
