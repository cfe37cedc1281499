#!/usr/bin/env bash
# serve-smoke: end-to-end exercise of the eipd/eipc service layer.
#
#   scripts/serve_smoke.sh [BUILD_DIR]
#
# Starts an eipd daemon on a private socket, submits a small suite cold
# through eipc, resubmits it warm, and asserts the three promises the
# serve subsystem makes:
#
#   1. the warm pass is served entirely from the result cache (the
#      serve.simulated counter does not move between the two passes);
#   2. cache-served artifacts are byte-identical to cold-simulated ones
#      (cmp, not a structural diff — the cache stores exact bytes);
#   3. a fault-injected crashing worker fails in isolation: the submit
#      reports the failure and the daemon keeps serving.
#
# Every JSON the run produces (fetched artifacts, stats snapshots) is
# validated against its schema by scripts/validate_stats_json.py.
# Artifacts land in serve-smoke-artifacts/ (override with
# EIP_SERVE_SMOKE_DIR).
set -euo pipefail

BUILD_DIR="${1:-build}"
EIPD="$BUILD_DIR/src/tools/eipd"
EIPC="$BUILD_DIR/src/tools/eipc"
OUT="${EIP_SERVE_SMOKE_DIR:-serve-smoke-artifacts}"
SOCK="${TMPDIR:-/tmp}/eip_serve_smoke_$$.sock"
WORKLOADS=(tiny crypto-1 int-1 fp-1 srv-1)

for tool in "$EIPD" "$EIPC"; do
    [ -x "$tool" ] || { echo "serve-smoke: missing $tool" >&2; exit 1; }
done
mkdir -p "$OUT"

"$EIPD" --socket "$SOCK" --workers 2 --queue-depth 32 &
EIPD_PID=$!
trap 'kill "$EIPD_PID" 2>/dev/null || true; rm -f "$SOCK"' EXIT

# The socket appears only once the daemon has bound it, so wait for it
# rather than sleeping a fixed interval.
for _ in $(seq 1 200); do
    [ -S "$SOCK" ] && break
    kill -0 "$EIPD_PID" 2>/dev/null || {
        echo "serve-smoke: eipd died before binding" >&2; exit 1; }
    sleep 0.1
done
[ -S "$SOCK" ] || { echo "serve-smoke: socket never appeared" >&2; exit 1; }

submit() {
    local w="$1" out="$2"
    "$EIPC" --socket "$SOCK" submit --workload "$w" \
        --prefetcher entangling-4k --instructions 60000 --warmup 20000 \
        --wait --timeout 120 --out "$out"
}

echo "== cold pass =="
for w in "${WORKLOADS[@]}"; do
    submit "$w" "$OUT/cold-$w.json"
done
"$EIPC" --socket "$SOCK" stats --out "$OUT/stats-cold.json"

echo "== warm pass (identical resubmission) =="
for w in "${WORKLOADS[@]}"; do
    submit "$w" "$OUT/warm-$w.json"
done
"$EIPC" --socket "$SOCK" stats --out "$OUT/stats-warm.json"

echo "== byte-identity (cache-served vs cold-simulated) =="
for w in "${WORKLOADS[@]}"; do
    cmp "$OUT/cold-$w.json" "$OUT/warm-$w.json"
    echo "identical: $w"
done

echo "== warm pass was fully cache-served =="
python3 - "$OUT/stats-cold.json" "$OUT/stats-warm.json" \
    "${#WORKLOADS[@]}" <<'EOF'
import json, sys
cold = json.load(open(sys.argv[1]))["counters"]
warm = json.load(open(sys.argv[2]))["counters"]
n = int(sys.argv[3])
simulated = warm["serve.simulated"] - cold["serve.simulated"]
served = warm["serve.served_cache"] - cold["serve.served_cache"]
assert simulated == 0, f"warm pass simulated {simulated} jobs, wanted 0"
assert served == n, f"warm pass cache-served {served} jobs, wanted {n}"
print(f"cache-served {served}/{n}, simulated {simulated}")
EOF

echo "== crash isolation (fault-injected worker) =="
rc=0
"$EIPC" --socket "$SOCK" submit --workload tiny --inject-crash \
    --wait --timeout 120 || rc=$?
[ "$rc" -eq 3 ] || {
    echo "serve-smoke: crash submit exited $rc, wanted 3" >&2; exit 1; }
# The daemon must still be serving after reaping the crashed worker.
submit tiny "$OUT/post-crash-tiny.json"
cmp "$OUT/cold-tiny.json" "$OUT/post-crash-tiny.json"
echo "daemon survived the crash; tiny still cache-served byte-identical"

echo "== schema validation =="
python3 scripts/validate_stats_json.py "$OUT"/*.json

"$EIPC" --socket "$SOCK" shutdown
wait "$EIPD_PID"
trap - EXIT
rm -f "$SOCK"
echo "serve-smoke: OK"
