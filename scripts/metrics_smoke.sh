#!/usr/bin/env bash
# Metrics-endpoint smoke test: run the TCP federation demo with -metrics,
# scrape the Prometheus page while the process lingers, and check that the
# round counter and the broadcast byte counter are nonzero — i.e. the
# telemetry subsystem is wired into the live transport, not just compiled —
# and that the same address serves the net/http/pprof index.
#
# Usage: scripts/metrics_smoke.sh
# Exits nonzero (with the captured log) on any failure.
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
pid=""
cleanup() {
	[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/tcp_federation" ./examples/tcp_federation

"$work/tcp_federation" -metrics 127.0.0.1:0 -metrics-linger 60s >"$work/run.log" 2>&1 &
pid=$!

# The demo prints "metrics listening on http://ADDR/metrics" once the
# registry server has bound its ephemeral port.
url=""
for _ in $(seq 1 100); do
	url=$(sed -n 's/^metrics listening on \(http:[^ ]*\)$/\1/p' "$work/run.log" | head -n1)
	[ -n "$url" ] && break
	kill -0 "$pid" 2>/dev/null || { echo "FAIL: demo exited before serving metrics"; cat "$work/run.log"; exit 1; }
	sleep 0.2
done
[ -n "$url" ] || { echo "FAIL: no metrics address in log"; cat "$work/run.log"; exit 1; }

fetch() {
	if command -v curl >/dev/null 2>&1; then
		curl -sf "$1"
	else
		wget -qO- "$1"
	fi
}

# Poll until the instrumented run has completed at least one round; the
# demo's first federation finishes in well under this bound.
ok=0
for _ in $(seq 1 300); do
	if fetch "$url" >"$work/metrics.txt" 2>/dev/null &&
		grep -Eq '^fed_rounds_total [1-9]' "$work/metrics.txt" &&
		grep -Eq '^fed_broadcast_bytes_total [1-9]' "$work/metrics.txt"; then
		ok=1
		break
	fi
	kill -0 "$pid" 2>/dev/null || break
	sleep 0.2
done
if [ "$ok" != 1 ]; then
	echo "FAIL: /metrics never showed nonzero fed_rounds_total and fed_broadcast_bytes_total"
	echo "--- last scrape ---"
	cat "$work/metrics.txt" 2>/dev/null || true
	echo "--- run log ---"
	cat "$work/run.log"
	exit 1
fi

pprof_url="${url%/metrics}/debug/pprof/"
if ! fetch "$pprof_url" >"$work/pprof.txt" 2>/dev/null || ! grep -q 'goroutine' "$work/pprof.txt"; then
	echo "FAIL: $pprof_url did not serve the pprof index"
	cat "$work/pprof.txt" 2>/dev/null || true
	exit 1
fi

echo "metrics smoke OK (pprof index served at $pprof_url):"
grep -E '^fed_(rounds_total|broadcast_bytes_total|upload_bytes_total) ' "$work/metrics.txt"
