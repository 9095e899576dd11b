#!/usr/bin/env sh
# loadbench.sh — the city-scale load experiment over real sockets,
# recorded in BENCH_PR6.json. Three measurements:
#
#   1. Microbench: the tcpnet frame write path (must stay 0 allocs/op)
#      and a full loopback round trip.
#   2. Baseline phase: a live loopback city (citysim -live) answering
#      queries while ingest is light — the read path's resting
#      latency.
#   3. Saturation phase: O(100k) simulated sensors driving bulk
#      ingest flat out while the same query plane keeps reading. The
#      query p99 of this phase against the baseline is the class-
#      isolation result: bulk ingest rides its own stream and window,
#      so it must not drag the read path with it.
#   4. Control phase: the same saturation re-run with -single-stream,
#      which collapses queries onto the ingest stream (shared
#      connections, window, dispatch slots). The gap between control
#      and isolated query latency is what the per-class streams buy.
#
# Usage:
#   scripts/loadbench.sh [out.json]
#
# Scale knobs (env): LB_WORKERS (ingest workers, default 4),
# LB_SENSORS (sensors per worker, default 25000), LB_ROUNDS (batches
# per worker, default 20), LB_QUERY_WORKERS (default 4),
# LB_QUERY_ROUNDS (default 300). The default shape — few workers,
# fat batches — saturates the ingest plane end to end (interval 0)
# while keeping the runnable-handler set small, so on small hosts the
# query measurement reflects transport queueing rather than a pile of
# preempted ingest goroutines sharing the cores.
set -eu

cd "$(dirname "$0")/.."
OUT="${1:-BENCH_PR6.json}"
WORKERS="${LB_WORKERS:-4}"
SENSORS="${LB_SENSORS:-25000}"
ROUNDS="${LB_ROUNDS:-20}"
QWORKERS="${LB_QUERY_WORKERS:-4}"
QROUNDS="${LB_QUERY_ROUNDS:-300}"

WORK="$(mktemp -d)"
SIM_PID=""
cleanup() {
	[ -n "$SIM_PID" ] && kill "$SIM_PID" 2>/dev/null || true
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "== microbench: frame write path + loopback round trip"
go test ./internal/transport/tcpnet/ -run '^$' \
	-bench 'FrameWrite|LoopbackRoundTrip' -benchtime 2000x -count 3 \
	| tee "$WORK/micro.txt"

echo "== building the load plane"
go build -o "$WORK/citysim" ./cmd/citysim
go build -o "$WORK/f2cload" ./cmd/f2cload

echo "== booting the live city (tcpnet on loopback)"
cat >"$WORK/city.json" <<EOF
{
	"city": "Barcelona",
	"districts": [{"name": "d01", "sections": 2}, {"name": "d02", "sections": 2}],
	"codec": "zip",
	"dedup": true,
	"quality": true,
	"fog1FlushSeconds": 2,
	"fog2FlushSeconds": 5,
	"fog1RetentionSeconds": 3600,
	"fog2RetentionSeconds": 86400
}
EOF
"$WORK/citysim" -live -config "$WORK/city.json" -cluster-out "$WORK/cluster.json" \
	>"$WORK/citysim.log" 2>&1 &
SIM_PID=$!
i=0
while [ ! -s "$WORK/cluster.json" ]; do
	i=$((i + 1))
	if [ "$i" -ge 100 ]; then
		echo "live city never wrote its cluster document" >&2
		cat "$WORK/citysim.log" >&2
		exit 1
	fi
	sleep 0.2
done

echo "== baseline phase: light ingest, measured query plane"
"$WORK/f2cload" -cluster "$WORK/cluster.json" \
	-workers "$QWORKERS" -sensors 100 -rounds 3 -interval 100ms \
	-query-workers "$QWORKERS" -query-rounds "$QROUNDS" \
	-json "$WORK/baseline.json"

echo "== saturation phase: $((WORKERS * SENSORS)) sensors, ingest flat out, same query plane"
"$WORK/f2cload" -cluster "$WORK/cluster.json" \
	-workers "$WORKERS" -sensors "$SENSORS" -rounds "$ROUNDS" -interval 0 \
	-query-workers "$QWORKERS" -query-rounds "$QROUNDS" \
	-json "$WORK/saturated.json"

echo "== control phase: same saturation, class isolation disabled (-single-stream)"
"$WORK/f2cload" -cluster "$WORK/cluster.json" -single-stream \
	-workers "$WORKERS" -sensors "$SENSORS" -rounds "$ROUNDS" -interval 0 \
	-query-workers "$QWORKERS" -query-rounds "$QROUNDS" \
	-json "$WORK/control.json" || true  # backpressure errors are the expected outcome

kill -TERM "$SIM_PID"
wait "$SIM_PID" || true
SIM_PID=""

python3 - "$WORK/micro.txt" "$WORK/baseline.json" "$WORK/saturated.json" "$WORK/control.json" "$OUT" <<'EOF'
import json, re, sys

micro_path, base_path, sat_path, ctl_path, out = sys.argv[1:6]

bench = {}
pat = re.compile(
    r"^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op"
    r"(?:\s+([\d.]+) MB/s)?(?:\s+([\d.]+) B/op)?(?:\s+(\d+) allocs/op)?")
for line in open(micro_path):
    m = pat.match(line)
    if not m:
        continue
    name, ns, mbs, bop, aop = m.groups()
    entry = {"ns_per_op": float(ns)}
    if mbs is not None:
        entry["mb_per_sec"] = float(mbs)
    if bop is not None:
        entry["bytes_per_op"] = float(bop)
    if aop is not None:
        entry["allocs_per_op"] = int(aop)
    cur = bench.get(name)
    if cur is None or entry["ns_per_op"] < cur["ns_per_op"]:
        bench[name] = entry  # best of -count runs

with open(base_path) as f:
    baseline = json.load(f)
with open(sat_path) as f:
    saturated = json.load(f)
with open(ctl_path) as f:
    control = json.load(f)

doc = {
    "description": (
        "City-scale load experiment over the tcpnet socket transport "
        "(loopback, citysim -live hierarchy: 4 fog1 / 2 fog2 / 1 "
        "cloud). 'baseline' measures query round-trip latency while "
        "ingest is light; 'saturated' re-measures the same query "
        "plane while the ingest plane drives O(100k) simulated "
        "sensors flat out on its own traffic class. "
        "'control_single_stream' re-runs the saturation phase with "
        "class isolation disabled (-single-stream: queries share the "
        "ingest connections, flow-control window and dispatch "
        "slots) — the gap between control and isolated query "
        "latency/errors is what the per-class streams buy; the "
        "residual gap between baseline and isolated saturation is "
        "host CPU contention, which a transport cannot remove. The "
        "microbench records the frame write path, which must stay "
        "at 0 allocs/op. Regenerate with scripts/loadbench.sh."
    ),
    "microbench": bench,
    "baseline": baseline,
    "saturated": saturated,
    "control_single_stream": control,
}

sat_ing = saturated.get("ingest", {})
doc["sustained_ingest_readings_per_sec"] = round(sat_ing.get("perSec", 0.0), 1)
doc["sustained_ingest_wire_bytes"] = sat_ing.get("wireBytes", 0)
bq = (baseline.get("query") or {}).get("p99Ms")
sq = (saturated.get("query") or {}).get("p99Ms")
cq = control.get("query") or {}
if bq and sq:
    doc["query_p99_ms_baseline"] = bq
    doc["query_p99_ms_under_saturation"] = sq
    doc["query_p99_saturation_ratio"] = round(sq / bq, 2)
if cq.get("p99Ms") and sq:
    doc["query_p99_ms_single_stream_control"] = cq["p99Ms"]
    doc["query_errors_single_stream_control"] = cq.get("errors", 0)
    doc["query_errors_isolated"] = (saturated.get("query") or {}).get("errors", 0)
    doc["isolated_vs_single_stream_p99_ratio"] = round(cq["p99Ms"] / sq, 2)
fw = bench.get("BenchmarkFrameWrite", {})
doc["frame_write_allocs_per_op"] = fw.get("allocs_per_op")

with open(out, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=False)
    f.write("\n")
print("wrote", out)
if fw.get("allocs_per_op", 1) != 0:
    sys.exit("frame write path allocates: %s" % fw)
EOF
