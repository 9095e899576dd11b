#!/usr/bin/env sh
# tcpsmoke.sh — end-to-end smoke of the multi-process city over the
# tcpnet socket transport: build the daemons, boot a real 3-process
# hierarchy (fog1 -> fog2 -> cloud) on loopback, drive ingest through
# f2cload, flush each layer upward, answer a query and a summary at
# the cloud, scrape transport metrics, then shut everything down with
# SIGTERM and verify every daemon exited cleanly. A second leg boots
# the same city in one process (f2cd -all-in-one) behind one tcpnet
# port, addresses the cloud and a fog node through it, drives one
# f2cload round, reads the open-data API and stops it with SIGTERM.
#
# Usage:
#   scripts/tcpsmoke.sh [base-port]
#
# base-port defaults to 9400 (cloud), +1 fog2, +2 fog1, +3 the
# all-in-one message port, +4 its open-data HTTP port.
set -eu

cd "$(dirname "$0")/.."
BASE="${1:-9400}"
CLOUD_ADDR="127.0.0.1:$BASE"
FOG2_ADDR="127.0.0.1:$((BASE + 1))"
FOG1_ADDR="127.0.0.1:$((BASE + 2))"
AIO_ADDR="127.0.0.1:$((BASE + 3))"
AIO_WEB="127.0.0.1:$((BASE + 4))"

WORK="$(mktemp -d)"
CLOUD_PID=""
FOG2_PID=""
FOG1_PID=""
AIO_PID=""
cleanup() {
	for pid in "$FOG1_PID" "$FOG2_PID" "$CLOUD_PID" "$AIO_PID"; do
		[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	done
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "== building daemons into $WORK"
go build -o "$WORK/f2cd" ./cmd/f2cd
go build -o "$WORK/f2cctl" ./cmd/f2cctl
go build -o "$WORK/f2cload" ./cmd/f2cload

CTL="$WORK/f2cctl"

# One deployment document describes the whole city; each process hosts
# the node its -id names in it. Hour-long flush periods keep the
# background flushers out of the way: the smoke flushes explicitly.
cat >"$WORK/city.json" <<EOF
{
	"city": "Barcelona",
	"districts": [{"name": "d01", "sections": 1}],
	"codec": "zip",
	"dedup": true,
	"quality": true,
	"fog1FlushSeconds": 3600,
	"fog2FlushSeconds": 3600,
	"fog1RetentionSeconds": 3600,
	"fog2RetentionSeconds": 86400
}
EOF

echo "== starting cloud + fog2 + fog1 over tcpnet"
F2CD="$WORK/f2cd -config $WORK/city.json"
$F2CD -id cloud -listen "$CLOUD_ADDR" >"$WORK/cloud.log" 2>&1 &
CLOUD_PID=$!
$F2CD -id fog2/d01 -parent-addr "$CLOUD_ADDR" \
	-listen "$FOG2_ADDR" >"$WORK/fog2.log" 2>&1 &
FOG2_PID=$!
$F2CD -id fog1/d01-s01 -parent-addr "$FOG2_ADDR" \
	-listen "$FOG1_ADDR" >"$WORK/fog1.log" 2>&1 &
FOG1_PID=$!

wait_ready() { # addr id
	i=0
	while ! $CTL -node "$1" -node-id "$2" -timeout 2s status >/dev/null 2>&1; do
		i=$((i + 1))
		if [ "$i" -ge 50 ]; then
			echo "node $2 at $1 never came up" >&2
			cat "$WORK"/*.log >&2
			exit 1
		fi
		sleep 0.2
	done
}
wait_ready "$CLOUD_ADDR" cloud
wait_ready "$FOG2_ADDR" fog2/d01
wait_ready "$FOG1_ADDR" fog1/d01-s01
echo "   all three nodes answering over tcp"

echo "== driving ingest through f2cload (cluster mode)"
cat >"$WORK/cluster.json" <<EOF
{"nodes": {"fog1/d01-s01": "$FOG1_ADDR"}}
EOF
"$WORK/f2cload" -cluster "$WORK/cluster.json" \
	-type temperature -workers 2 -sensors 25 -rounds 3 -interval 0

echo "== flushing the hierarchy upward (fog1 -> fog2 -> cloud)"
$CTL -node "$FOG1_ADDR" -node-id fog1/d01-s01 flush
$CTL -node "$FOG2_ADDR" -node-id fog2/d01 flush

echo "== querying the cloud over tcp"
LATEST="$($CTL -node "$CLOUD_ADDR" latest edge/f2cload/w000/temperature/0)"
echo "   latest: $LATEST"
case "$LATEST" in
*no\ data*)
	echo "cloud returned no data for an ingested sensor" >&2
	exit 1
	;;
esac
SUM="$($CTL -node "$CLOUD_ADDR" sum temperature 2000-01-01T00:00:00Z 2100-01-01T00:00:00Z)"
echo "   sum:    $SUM"
case "$SUM" in
count\ *) ;;
*)
	echo "cloud summary query failed: $SUM" >&2
	exit 1
	;;
esac

echo "== scraping transport metrics from fog1"
METRICS="$($CTL -node "$FOG1_ADDR" -node-id fog1/d01-s01 metrics)"
case "$METRICS" in
*transport.server.frames_received*) ;;
*)
	echo "fog1 metrics scrape missing transport counters: $METRICS" >&2
	exit 1
	;;
esac
echo "   transport.server.* counters present"

echo "== clean shutdown (SIGTERM)"
for pid in "$FOG1_PID" "$FOG2_PID" "$CLOUD_PID"; do
	kill -TERM "$pid"
done
FAIL=0
wait "$FOG1_PID" || FAIL=1
FOG1_PID=""
wait "$FOG2_PID" || FAIL=1
FOG2_PID=""
wait "$CLOUD_PID" || FAIL=1
CLOUD_PID=""
if [ "$FAIL" -ne 0 ]; then
	echo "a daemon exited non-zero on SIGTERM" >&2
	cat "$WORK"/*.log >&2
	exit 1
fi
echo "   three daemons exited cleanly"

echo "== all-in-one: the whole city behind one tcpnet port"
$F2CD -all-in-one -listen "$AIO_ADDR" -opendata-listen "$AIO_WEB" \
	>"$WORK/allinone.log" 2>&1 &
AIO_PID=$!
wait_ready "$AIO_ADDR" cloud
wait_ready "$AIO_ADDR" fog1/d01-s01
echo "   cloud and fog1 answering through the gateway"
"$WORK/f2cload" -node "$AIO_ADDR" -node-id fog1/d01-s01 \
	-type temperature -sensors 25 -rounds 1 -interval 0
CATEGORIES="$(curl -fsS "http://$AIO_WEB/opendata/v1/categories")"
echo "   open data: $CATEGORIES"
kill -TERM "$AIO_PID"
if ! wait "$AIO_PID"; then
	AIO_PID=""
	echo "the all-in-one daemon exited non-zero on SIGTERM" >&2
	cat "$WORK/allinone.log" >&2
	exit 1
fi
AIO_PID=""
echo "== tcp smoke OK: ingest, federated read, metrics, all-in-one gateway, clean shutdown"
