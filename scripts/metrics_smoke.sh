#!/usr/bin/env bash
# metrics-smoke: end-to-end exercise of the eipd flight recorder.
#
#   scripts/metrics_smoke.sh [BUILD_DIR]
#
# Starts an eipd daemon with structured logging, spans and the rolling
# metrics window enabled, drives a small storm covering every request
# outcome class (cold simulate, warm cache-serve, injected worker
# crash, queue-full rejection), then asserts the observability
# promises:
#
#   1. `eipc metrics --prom` is a well-formed Prometheus page whose
#      counters reflect the storm;
#   2. `eipc spans` returns an eip-trace/v1 serve document whose
#      terminal-state roll-ups reconcile EXACTLY against the daemon's
#      counters (`eiptrace SPANS --stats STATS` exits 0);
#   3. the daemon's stderr is pure eip-log/v1 NDJSON;
#   4. every scraped document validates against its schema;
#   5. a profiled single run (`eipsim --stats-json`) lands per-phase
#      wall time in the manifest (`phase_ms`).
#
# Artifacts land in metrics-smoke-artifacts/ (override with
# EIP_METRICS_SMOKE_DIR).
set -euo pipefail

BUILD_DIR="${1:-build}"
EIPD="$BUILD_DIR/src/tools/eipd"
EIPC="$BUILD_DIR/src/tools/eipc"
EIPSIM="$BUILD_DIR/src/tools/eipsim"
EIPTRACE="$BUILD_DIR/src/tools/eiptrace"
OUT="${EIP_METRICS_SMOKE_DIR:-metrics-smoke-artifacts}"
SOCK="${TMPDIR:-/tmp}/eip_metrics_smoke_$$.sock"
LOG="$OUT/eipd-log.ndjson"

for tool in "$EIPD" "$EIPC" "$EIPSIM" "$EIPTRACE"; do
    [ -x "$tool" ] || { echo "metrics-smoke: missing $tool" >&2; exit 1; }
done
mkdir -p "$OUT"

# Tight queue so the flood below sheds load; a wide metrics window so
# the whole storm stays inside it when we finally scrape.
"$EIPD" --socket "$SOCK" --workers 1 --queue-depth 1 \
    --metrics-window 600 --log-level info 2> "$LOG" &
EIPD_PID=$!
trap 'kill "$EIPD_PID" 2>/dev/null || true; rm -f "$SOCK"' EXIT

# The socket appears only once the daemon has bound it, so wait for it
# rather than sleeping a fixed interval.
for _ in $(seq 1 200); do
    [ -S "$SOCK" ] && break
    kill -0 "$EIPD_PID" 2>/dev/null || {
        echo "metrics-smoke: eipd died before binding" >&2; exit 1; }
    sleep 0.1
done
[ -S "$SOCK" ] || { echo "metrics-smoke: socket never appeared" >&2; exit 1; }

submit() {
    local w="$1"
    shift
    "$EIPC" --socket "$SOCK" submit --workload "$w" \
        --prefetcher entangling-4k --instructions 60000 --warmup 20000 \
        --wait --timeout 120 "$@"
}

echo "== storm: cold, warm, crash, flood =="
submit tiny --out "$OUT/cold-tiny.json"
submit crypto-1 > /dev/null
submit tiny --out "$OUT/warm-tiny.json"    # cache-served
cmp "$OUT/cold-tiny.json" "$OUT/warm-tiny.json"

rc=0
"$EIPC" --socket "$SOCK" submit --workload tiny --inject-crash \
    --wait --timeout 120 || rc=$?
[ "$rc" -eq 3 ] || {
    echo "metrics-smoke: crash submit exited $rc, wanted 3" >&2; exit 1; }

# Flood without --wait against the one-deep queue: submission is
# microseconds, each simulation many milliseconds, so some of these
# must be rejected (exit 3) while the accepted ones complete async.
rejected=0
for i in $(seq 0 7); do
    rc=0
    "$EIPC" --socket "$SOCK" submit --workload tiny \
        --prefetcher entangling-4k --instructions $((100000 + i)) \
        --warmup 20000 > /dev/null || rc=$?
    if [ "$rc" -eq 3 ]; then
        rejected=$((rejected + 1))
    elif [ "$rc" -ne 0 ]; then
        echo "metrics-smoke: flood submit exited $rc" >&2; exit 1
    fi
done
[ "$rejected" -ge 1 ] || {
    echo "metrics-smoke: flood shed no load (queue never filled?)" >&2
    exit 1; }
echo "flood: $rejected of 8 rejected"

echo "== wait for quiescence =="
settled=0
for _ in $(seq 1 300); do
    "$EIPC" --socket "$SOCK" stats --out "$OUT/stats.json"
    if python3 - "$OUT/stats.json" <<'EOF'
import json, sys
c = json.load(open(sys.argv[1]))["counters"]
terminal = (c["serve.served_cache"] + c["serve.simulated"]
            + c["serve.failed"] + c["serve.rejected_queue_full"])
sys.exit(0 if terminal == c["serve.submits"] - c["serve.invalid"] else 1)
EOF
    then settled=1; break; fi
    sleep 0.1
done
[ "$settled" -eq 1 ] || {
    echo "metrics-smoke: storm never quiesced" >&2; exit 1; }

echo "== scrape =="
"$EIPC" --socket "$SOCK" spans --out "$OUT/spans.json"
"$EIPC" --socket "$SOCK" stats --out "$OUT/stats.json"
"$EIPC" --socket "$SOCK" metrics --out "$OUT/metrics.json"
"$EIPC" --socket "$SOCK" metrics --prom > "$OUT/metrics.prom"

echo "== human-readable tables =="
"$EIPC" --socket "$SOCK" stats | grep -q "serve.requests"
"$EIPC" --socket "$SOCK" metrics | grep -q "qps"
echo "tables render"

echo "== Prometheus page reflects the storm =="
grep -q '^# TYPE eip_serve_requests counter$' "$OUT/metrics.prom"
grep -q '^eip_serve_worker_crashes 1$' "$OUT/metrics.prom"
grep -q "^eip_serve_rejected_queue_full $rejected\$" "$OUT/metrics.prom"
grep -q '^eip_build_info{' "$OUT/metrics.prom"
echo "exposition OK"

echo "== span terminals reconcile against the daemon counters =="
"$EIPTRACE" "$OUT/spans.json" --stats "$OUT/stats.json"

echo "== rolling window saw every outcome class =="
python3 - "$OUT/metrics.json" "$rejected" <<'EOF'
import json, sys
w = json.load(open(sys.argv[1]))["window"]
assert w["cache_hits"] >= 1, w
assert w["simulated"] >= 2, w
assert w["failed"] == 1, w
assert w["rejected"] == int(sys.argv[2]), w
assert w["qps"] > 0 and w["p50_ms"] > 0, w
print(f"window: {w['requests']} requests, qps {w['qps']:.2f}, "
      f"hit ratio {w['hit_ratio']:.2f}")
EOF

"$EIPC" --socket "$SOCK" shutdown
wait "$EIPD_PID"
trap - EXIT
rm -f "$SOCK"

echo "== daemon stderr is valid eip-log/v1 NDJSON =="
[ -s "$LOG" ] || { echo "metrics-smoke: empty daemon log" >&2; exit 1; }

echo "== profiled single run lands phase_ms in the manifest =="
"$EIPSIM" --workload tiny --prefetcher entangling-4k \
    --instructions 60000 --warmup 20000 --log-level warn \
    --stats-json "$OUT/profiled-run.json" > /dev/null
python3 - "$OUT/profiled-run.json" <<'EOF'
import json, sys
phases = json.load(open(sys.argv[1]))["manifest"]["phase_ms"]
# No 'serialize' here: the manifest's totals are closed before the
# document renders itself (the serve-trace spans do time it).
for phase in ("program_build", "prefetcher", "warmup", "measure",
              "fill_drain"):
    assert phase in phases, f"missing phase '{phase}' in {phases}"
print("phase_ms:", ", ".join(f"{k} {v:.2f}" for k, v in phases.items()))
EOF

echo "== schema validation =="
python3 scripts/validate_stats_json.py "$OUT"/*.json "$LOG"

echo "metrics-smoke: OK"
