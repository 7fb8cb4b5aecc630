#!/bin/sh
# Dashboard smoke: run a short mission with the store and HTTP
# inspector attached, then probe the fleet-dashboard surface from the
# outside — missions listing, fleet aggregates, dashboard page, the
# first SSE event off /live, the OpenMetrics exposition and the
# health/readiness probes — and finally read the store back with
# cmd/lgvstore. A second, deliberately SLO-breaching mission checks that
# a breach flips /health to 503 and freezes a flight bundle that
# `lgvsim -verify` accepts. Exercises exactly what a user gets
# from `lgvsim -store ... -http ... -slo ... -flightrec`.
set -eu

ADDR="${DASH_ADDR:-127.0.0.1:8321}"
STORE="${DASH_STORE:-/tmp/lgv-dash.lgvstore}"
BIN="${DASH_BIN:-/tmp/lgv-dash-bin}"

rm -f "$STORE"
mkdir -p "$BIN"
go build -o "$BIN/lgvsim" ./cmd/lgvsim
go build -o "$BIN/lgvstore" ./cmd/lgvstore

"$BIN/lgvsim" -maxtime 120 -map deadzone -faults "wap:20-35" \
    -store "$STORE" -http "$ADDR" >"$BIN/lgvsim.log" 2>&1 &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT

# The listener opens before the mission runs; give it a moment.
ok=0
for _ in $(seq 1 50); do
    if curl -sf "http://$ADDR/" >/dev/null 2>&1; then ok=1; break; fi
    sleep 0.2
done
[ "$ok" = 1 ] || { echo "dash-smoke: inspector never came up"; cat "$BIN/lgvsim.log"; exit 1; }

# Wait for the mission to finish and land in the store index.
ok=0
for _ in $(seq 1 150); do
    if curl -sf "http://$ADDR/missions" | grep -q '"end"'; then ok=1; break; fi
    sleep 0.2
done
[ "$ok" = 1 ] || { echo "dash-smoke: mission never finished in the store"; cat "$BIN/lgvsim.log"; exit 1; }

curl -sf "http://$ADDR/missions" | grep -q '"id": "m1"'
curl -sf "http://$ADDR/missions/m1" | grep -q '"ticks"'
curl -sf "http://$ADDR/fleet" | grep -q '"missions": 1'
curl -sf "http://$ADDR/dash" | grep -qi '<html'
curl -sf "http://$ADDR/timeline?limit=5" >/dev/null
# /live must hand every subscriber a first event immediately (the hello
# frame), even when the mission already ended — that is what makes this
# curl safe in CI.
curl -sN --max-time 5 "http://$ADDR/live" | grep -q -m1 "event: hello"

# OpenMetrics: the scrape must parse as Prometheus text exposition
# (checked by the same validator the exporter's unit test uses) and the
# health probes must report a breach-free mission as live and ready.
curl -sf "http://$ADDR/metrics.prom" >"$BIN/metrics.prom"
"$BIN/lgvsim" -verify "$BIN/metrics.prom"
curl -sf "http://$ADDR/health" | grep -q '"healthy": *true'
curl -sf "http://$ADDR/ready" | grep -q '"ready": *true'

kill "$PID" 2>/dev/null || true
trap - EXIT

# Forced-breach leg: an always-breaching SLO rule (idle energy accrues
# every tick, so the windowed rate is never <= 0) must trip the engine,
# flip /health to 503, and dump a flight bundle into -flight-dir.
FLIGHT_DIR="$BIN/flight"
ADDR2="${DASH_ADDR2:-127.0.0.1:8322}"
rm -rf "$FLIGHT_DIR"
mkdir -p "$FLIGHT_DIR"
"$BIN/lgvsim" -maxtime 60 -slo 'energy_rate<=0@10s' \
    -flight-dir "$FLIGHT_DIR" -http "$ADDR2" \
    >"$BIN/lgvsim-breach.log" 2>&1 &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT

# The breach opens a few virtual seconds in; poll until /health trips.
ok=0
for _ in $(seq 1 150); do
    code=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR2/health" 2>/dev/null) || code=0
    if [ "$code" = 503 ]; then ok=1; break; fi
    sleep 0.2
done
[ "$ok" = 1 ] || { echo "dash-smoke: /health never went 503 under a breached SLO"; cat "$BIN/lgvsim-breach.log"; exit 1; }
curl -s "http://$ADDR2/health" | grep -q '"healthy": *false'

kill "$PID" 2>/dev/null || true
trap - EXIT

# The breach dump landed in -flight-dir and must verify structurally.
BUNDLE=$(ls "$FLIGHT_DIR"/flight-*.jsonl 2>/dev/null | head -1)
[ -n "$BUNDLE" ] || { echo "dash-smoke: breach produced no flight bundle"; cat "$BIN/lgvsim-breach.log"; exit 1; }
"$BIN/lgvsim" -verify "$BUNDLE"

# And under -slo-strict the same breached mission is a CI failure (3).
set +e
"$BIN/lgvsim" -maxtime 60 -slo 'energy_rate<=0@10s' -slo-strict \
    >"$BIN/lgvsim-strict.log" 2>&1
rc=$?
set -e
[ "$rc" = 3 ] || { echo "dash-smoke: -slo-strict exited $rc, want 3"; cat "$BIN/lgvsim-strict.log"; exit 1; }

"$BIN/lgvstore" ls "$STORE"
"$BIN/lgvstore" stats "$STORE"
"$BIN/lgvstore" show "$STORE" m1 >/dev/null
echo "dash-smoke: OK (store at $STORE)"
