#!/usr/bin/env sh
# burst.sh — the overload-control experiment over real sockets,
# recorded in BENCH_PR8.json. Two live loopback cities take the same
# saturating ingest burst while a query plane keeps reading:
#
#   treatment  overload control ON: per-class weighted-fair admission
#              with an ingest token-bucket rate cap, bounded pending
#              buffers degrading to window summaries, adaptive flush
#              batch/interval tuning.
#   control    overload control OFF: ungated handlers, unbounded
#              buffers, fixed flush cadence — the pre-PR behavior.
#
# Each city is measured twice: an idle baseline (light ingest, query
# plane only) and the burst. The SLO is "query p99 under the burst
# stays within BURST_SLO_RATIO x that city's idle baseline p99 (with
# a BURST_SLO_FLOOR_MS noise floor)". The treatment must hold the
# SLO while shedding load gracefully (degraded readings + summary
# pushes, scraped from the nodes' registries); the control is
# expected to violate it.
#
# Usage:
#   scripts/burst.sh            # full run, writes BENCH_PR8.json
#   scripts/burst.sh quick      # treatment city only, assert SLO
#   scripts/burst.sh full out.json
#
# Scale knobs (env): BURST_WORKERS (default 4), BURST_SENSORS
# (readings per batch, default 4000), BURST_ROUNDS (default 10),
# BURST_QUERY_WORKERS (default 4), BURST_QUERY_ROUNDS (default 400),
# BURST_INGEST_RATE (treatment ingest-class bytes/sec per node,
# default 400000), BURST_MAX_PENDING (treatment per-type buffer
# bound, default 4000), BURST_SLO_RATIO (default 2), BURST_SLO_FLOOR_MS
# (default 5).
set -eu

cd "$(dirname "$0")/.."
MODE="${1:-full}"
OUT="${2:-BENCH_PR8.json}"
WORKERS="${BURST_WORKERS:-4}"
SENSORS="${BURST_SENSORS:-4000}"
ROUNDS="${BURST_ROUNDS:-10}"
QWORKERS="${BURST_QUERY_WORKERS:-4}"
QROUNDS="${BURST_QUERY_ROUNDS:-400}"
RATE="${BURST_INGEST_RATE:-400000}"
MAXPEND="${BURST_MAX_PENDING:-4000}"
SLO_RATIO="${BURST_SLO_RATIO:-2}"
SLO_FLOOR_MS="${BURST_SLO_FLOOR_MS:-5}"

WORK="$(mktemp -d)"
SIM_PID=""
cleanup() {
	[ -n "$SIM_PID" ] && kill "$SIM_PID" 2>/dev/null || true
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "== building the load plane"
go build -o "$WORK/citysim" ./cmd/citysim
go build -o "$WORK/f2cload" ./cmd/f2cload

# boot_city <tag> [extra deployment JSON members] — writes the live
# city's deployment document (4 fog1 / 2 fog2 / 1 cloud, 1 s / 2 s
# flush periods) with the extra members appended, boots it and waits
# for its cluster document at $WORK/<tag>.cluster.json.
boot_city() {
	tag="$1"
	cat >"$WORK/$tag.city.json" <<EOF
{
	"city": "Barcelona",
	"districts": [{"name": "d01", "sections": 2}, {"name": "d02", "sections": 2}],
	"codec": "zip",
	"dedup": true,
	"quality": true,
	"fog1FlushSeconds": 1,
	"fog2FlushSeconds": 2,
	"fog1RetentionSeconds": 3600,
	"fog2RetentionSeconds": 86400${2:-}
}
EOF
	"$WORK/citysim" -live -config "$WORK/$tag.city.json" \
		-cluster-out "$WORK/$tag.cluster.json" \
		>"$WORK/$tag.citysim.log" 2>&1 &
	SIM_PID=$!
	i=0
	while [ ! -s "$WORK/$tag.cluster.json" ]; do
		i=$((i + 1))
		if [ "$i" -ge 100 ]; then
			echo "live city ($tag) never wrote its cluster document" >&2
			cat "$WORK/$tag.citysim.log" >&2
			exit 1
		fi
		sleep 0.2
	done
}

stop_city() {
	kill -TERM "$SIM_PID" 2>/dev/null || true
	wait "$SIM_PID" || true
	SIM_PID=""
}

# measure <tag> — idle baseline then burst against the running city.
measure() {
	tag="$1"
	echo "== $tag: idle baseline (light ingest, measured query plane)"
	"$WORK/f2cload" -cluster "$WORK/$tag.cluster.json" \
		-workers "$QWORKERS" -sensors 100 -rounds 3 -interval 100ms \
		-query-workers "$QWORKERS" -query-rounds "$QROUNDS" \
		-json "$WORK/$tag.baseline.json"
	echo "== $tag: burst ($((WORKERS * SENSORS)) readings/round x $ROUNDS rounds, ingest flat out, same query plane)"
	"$WORK/f2cload" -cluster "$WORK/$tag.cluster.json" \
		-workers "$WORKERS" -sensors "$SENSORS" -rounds "$ROUNDS" -interval 0 \
		-query-workers "$QWORKERS" -query-rounds "$QROUNDS" \
		-timeout 60s -scrape \
		-json "$WORK/$tag.burst.json"
}

echo "== treatment city: overload control ON"
boot_city treatment ",
	\"overload\": true,
	\"ingestRateBytes\": $RATE,
	\"maxPendingReadings\": $MAXPEND,
	\"degradeToSummary\": true,
	\"adaptiveFlush\": true"
measure treatment
stop_city

if [ "$MODE" != "quick" ]; then
	echo "== control city: overload control OFF"
	boot_city control
	measure control
	stop_city
fi

python3 - "$MODE" "$WORK" "$OUT" "$SLO_RATIO" "$SLO_FLOOR_MS" <<'EOF'
import json, sys

mode, work, out, slo_ratio, slo_floor = sys.argv[1:6]
slo_ratio, slo_floor = float(slo_ratio), float(slo_floor)

def load(tag, phase):
    with open("%s/%s.%s.json" % (work, tag, phase)) as f:
        return json.load(f)

def verdict(tag):
    base = load(tag, "baseline")
    burst = load(tag, "burst")
    bq = (base.get("query") or {}).get("p99Ms") or 0.0
    sq = (burst.get("query") or {}).get("p99Ms") or 0.0
    slo_ms = max(slo_ratio * bq, slo_floor)
    return {
        "baseline": base,
        "burst": burst,
        "query_p99_ms_idle": bq,
        "query_p99_ms_burst": sq,
        "burst_over_idle_ratio": round(sq / bq, 2) if bq else None,
        "slo_ms": round(slo_ms, 3),
        "slo_held": sq <= slo_ms,
    }

treatment = verdict("treatment")
ov = treatment["burst"].get("overload") or {}
degraded = ov.get("flush.degraded_readings", 0)
summaries = ov.get("flush.summaries_emitted", 0)

print("treatment: idle p99 %.2fms, burst p99 %.2fms (SLO %.2fms) -> %s" % (
    treatment["query_p99_ms_idle"], treatment["query_p99_ms_burst"],
    treatment["slo_ms"], "HELD" if treatment["slo_held"] else "VIOLATED"))
print("treatment: %d readings degraded to summaries, %d summary pushes emitted" % (
    degraded, summaries))

failures = []
if not treatment["slo_held"]:
    failures.append("treatment burst query p99 %.2fms exceeds SLO %.2fms" % (
        treatment["query_p99_ms_burst"], treatment["slo_ms"]))
if degraded <= 0:
    failures.append("burst never engaged degrade-to-summary (degraded_readings == 0)")
if summaries <= 0:
    failures.append("no degraded summaries were pushed upward (summaries_emitted == 0)")

if mode == "quick":
    if failures:
        sys.exit("SLO verdict: FAIL\n  " + "\n  ".join(failures))
    print("SLO verdict: PASS")
    sys.exit(0)

control = verdict("control")
print("control:   idle p99 %.2fms, burst p99 %.2fms (SLO %.2fms) -> %s" % (
    control["query_p99_ms_idle"], control["query_p99_ms_burst"],
    control["slo_ms"], "HELD" if control["slo_held"] else "VIOLATED"))

doc = {
    "description": (
        "Overload-control experiment over the tcpnet socket transport "
        "(loopback, citysim -live hierarchy: 4 fog1 / 2 fog2 / 1 "
        "cloud). Two cities take the same saturating ingest burst "
        "while a query plane keeps reading. 'treatment' runs with "
        "overload control ON (per-class weighted-fair admission with "
        "an ingest token-bucket rate cap, bounded pending buffers "
        "degrading trimmed readings into decomposable window "
        "summaries pushed upward, adaptive RTT-driven flush "
        "batch/interval tuning); 'control' runs the pre-PR behavior "
        "(ungated handlers, unbounded buffers, fixed cadence). Each "
        "city is measured idle (light ingest) and under the burst; "
        "the SLO is burst query p99 within %gx that city's idle p99 "
        "(noise floor %gms). The treatment must hold the SLO while "
        "degrading ingest to summaries instead of dropping readings; "
        "the control demonstrates the violation the scheduler "
        "removes. Regenerate with scripts/burst.sh."
    ) % (slo_ratio, slo_floor),
    "slo_ratio": slo_ratio,
    "slo_floor_ms": slo_floor,
    "treatment": treatment,
    "control": control,
    "treatment_degraded_readings": degraded,
    "treatment_summary_pushes": summaries,
    "verdict": {
        "treatment_slo_held": treatment["slo_held"],
        "control_slo_violated": not control["slo_held"],
        "degrade_engaged": degraded > 0 and summaries > 0,
    },
}

with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print("wrote", out)

if failures:
    sys.exit("SLO verdict: FAIL\n  " + "\n  ".join(failures))
if control["slo_held"]:
    sys.exit("control city held the SLO: the burst is not saturating enough to demonstrate the contrast")
print("SLO verdict: PASS (treatment holds, control violates)")
EOF
