#!/bin/sh
# Mission-control-plane smoke: start `lgvsim -serve` with a store
# attached, drive the HTTP mission API from the outside — admit three
# missions via curl, poll them to completion, check the scheduler
# stats on /healthz and the error contract (400 on garbage, 404 on an
# unknown id) — then shut the daemon down with SIGTERM and verify the
# drain flushed every mission, finished, into the store by reading it
# back with cmd/lgvstore. Exercises exactly what a user gets from
# `lgvsim -serve -http ... -store ...`.
#
# Then the crash-kill leg: restart the daemon on the same store, admit a
# long mission, SIGKILL the daemon while it runs, and check that the
# store lists that mission as unfinished, that the finished missions
# export byte for byte as before, and that a daemon restarted on the
# killed log still appends and finishes a new mission.
set -eu

ADDR="${SERVE_ADDR:-127.0.0.1:8331}"
STORE="${SERVE_STORE:-/tmp/lgv-serve.lgvstore}"
BIN="${SERVE_BIN:-/tmp/lgv-serve-bin}"
N=3

rm -f "$STORE"
mkdir -p "$BIN"
go build -o "$BIN/lgvsim" ./cmd/lgvsim
go build -o "$BIN/lgvstore" ./cmd/lgvstore

# start_daemon starts `lgvsim -serve` on the store, logging to $1, and
# waits until it answers /healthz.
start_daemon() {
    "$BIN/lgvsim" -serve -http "$ADDR" -store "$STORE" \
        -serve-max-running 2 >"$1" 2>&1 &
    PID=$!
    ok=0
    for _ in $(seq 1 50); do
        if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then ok=1; break; fi
        sleep 0.2
    done
    [ "$ok" = 1 ] || { echo "serve-smoke: daemon never came up"; cat "$1"; exit 1; }
    curl -sf "http://$ADDR/healthz" | grep -q '"accepting": *true'
}

# await_success polls mission $1 to a successful finish and fetches its
# full result; $2 is the log to show on failure.
await_success() {
    ok=0
    for _ in $(seq 1 150); do
        if curl -sf "http://$ADDR/missions/$1" | grep -q '"state": *"done"'; then ok=1; break; fi
        sleep 0.2
    done
    [ "$ok" = 1 ] || { echo "serve-smoke: $1 never finished"; cat "$2"; exit 1; }
    curl -sf "http://$ADDR/missions/$1/result" | grep -q '"success": *true' \
        || { echo "serve-smoke: $1 did not succeed"; exit 1; }
}

# drain SIGTERMs the daemon and waits for a clean exit; $1 is its log.
drain() {
    kill -TERM "$PID"
    ok=0
    for _ in $(seq 1 100); do
        if ! kill -0 "$PID" 2>/dev/null; then ok=1; break; fi
        sleep 0.2
    done
    [ "$ok" = 1 ] || { echo "serve-smoke: daemon ignored SIGTERM"; cat "$1"; exit 1; }
    wait "$PID" 2>/dev/null || { echo "serve-smoke: daemon exited nonzero"; cat "$1"; exit 1; }
}

PID=
trap 'kill "$PID" 2>/dev/null || true' EXIT
start_daemon "$BIN/serve.log"

# Admit N missions (max-running is 2, so the third queues briefly).
spec() {
    cat <<EOF
{"mission_seed": $1, "workload": "navigation",
 "world": {"kind": "empty", "w": 5, "h": 4, "res": 0.1},
 "start_x": 1, "start_y": 1, "goal_x": 1.8, "goal_y": 1.3,
 "deploy": {"mode": "local", "threads": 1}, "fleet": 1,
 "link": {"profile": "good", "wapx": 1, "wapy": 1},
 "max_sim_time": 20, "tracker_samples": 200}
EOF
}
i=1
while [ "$i" -le "$N" ]; do
    spec "$i" | curl -sf -XPOST --data-binary @- "http://$ADDR/missions" \
        | grep -q "\"id\": *\"j$i\"" \
        || { echo "serve-smoke: admit j$i failed"; cat "$BIN/serve.log"; exit 1; }
    i=$((i + 1))
done

# The error contract: garbage is a 400 with an error doc, an unknown
# mission a 404, and neither kills the daemon.
code=$(curl -s -o /dev/null -w '%{http_code}' -XPOST -d 'not json' "http://$ADDR/missions")
[ "$code" = 400 ] || { echo "serve-smoke: garbage spec gave $code, want 400"; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/missions/zzz")
[ "$code" = 404 ] || { echo "serve-smoke: unknown id gave $code, want 404"; exit 1; }

# Poll every mission to a successful finish and fetch its full result.
i=1
while [ "$i" -le "$N" ]; do
    await_success "j$i" "$BIN/serve.log"
    i=$((i + 1))
done

# Scheduler stats surfaced on /healthz, and the inspection surface
# still serves underneath the mission API.
curl -sf "http://$ADDR/healthz" | grep -q "\"admitted\": *$N"
curl -sf "http://$ADDR/healthz" | grep -q "\"done\": *$N"
curl -sf "http://$ADDR/dash" | grep -qi '<html'
curl -sf "http://$ADDR/metrics" | grep -q 'serve_admitted'

# Graceful drain: SIGTERM must flush the store and exit cleanly.
drain "$BIN/serve.log"
grep -q 'drained: admitted=3 done=3' "$BIN/serve.log" \
    || { echo "serve-smoke: drain summary missing"; cat "$BIN/serve.log"; exit 1; }

# The store must hold all N missions, finished, under scheduler IDs.
[ "$("$BIN/lgvstore" ls "$STORE" | grep -c ' success ')" = "$N" ] \
    || { echo "serve-smoke: store missing missions"; "$BIN/lgvstore" ls "$STORE"; exit 1; }
"$BIN/lgvstore" stats "$STORE" | grep -q "$N missions: $N success, 0 failure, 0 unfinished"
"$BIN/lgvstore" show "$STORE" j1 >/dev/null
i=1
while [ "$i" -le "$N" ]; do
    "$BIN/lgvstore" export -o "$BIN/j$i.json" "$STORE" "j$i"
    i=$((i + 1))
done

# Crash-kill: restart on the same store and admit a corridor patrol of
# some 2,000 simulated seconds (j4: the daemon numbers above the stored
# missions). Once it has stepped, its start record is on disk; SIGKILL
# the daemon while it runs.
start_daemon "$BIN/serve-kill.log"
patrol=$(printf '[29, 2], [1, 2], %.0s' $(seq 1 10))
curl -sf -XPOST --data-binary @- "http://$ADDR/missions" <<EOF \
    | grep -q '"id": *"j4"' || { echo "serve-smoke: admit j4 failed"; cat "$BIN/serve-kill.log"; exit 1; }
{"mission_seed": 4, "workload": "navigation",
 "world": {"kind": "empty", "w": 30, "h": 4, "res": 0.1},
 "start_x": 1, "start_y": 2, "goal_x": 29, "goal_y": 2,
 "waypoints": [${patrol%, }],
 "deploy": {"mode": "local", "threads": 1}, "fleet": 1,
 "link": {"profile": "good", "wapx": 1, "wapy": 1},
 "max_sim_time": 5000, "tracker_samples": 200}
EOF
ok=0
for _ in $(seq 1 150); do
    if curl -sf "http://$ADDR/missions/j4" | grep -q '"t": *[1-9]'; then ok=1; break; fi
    sleep 0.1
done
[ "$ok" = 1 ] || { echo "serve-smoke: j4 never stepped"; cat "$BIN/serve-kill.log"; exit 1; }
curl -sf "http://$ADDR/missions/j4" | grep -q '"state": *"running"' \
    || { echo "serve-smoke: j4 finished before the kill"; exit 1; }
kill -KILL "$PID"
wait "$PID" 2>/dev/null || true

# The killed mission is listed unfinished, and every finished mission
# exports byte for byte as before the kill.
"$BIN/lgvstore" stats "$STORE" | grep -q "4 missions: 3 success, 0 failure, 1 unfinished" \
    || { echo "serve-smoke: store after SIGKILL"; "$BIN/lgvstore" stats "$STORE"; exit 1; }
i=1
while [ "$i" -le "$N" ]; do
    "$BIN/lgvstore" export -o "$BIN/j$i.after.json" "$STORE" "j$i"
    cmp "$BIN/j$i.json" "$BIN/j$i.after.json" \
        || { echo "serve-smoke: j$i changed after SIGKILL"; exit 1; }
    i=$((i + 1))
done

# A daemon restarted on the killed log appends after its tail: a new
# mission (j5) runs to success and reads back.
start_daemon "$BIN/serve-restart.log"
spec 5 | curl -sf -XPOST --data-binary @- "http://$ADDR/missions" \
    | grep -q '"id": *"j5"' || { echo "serve-smoke: admit j5 failed"; cat "$BIN/serve-restart.log"; exit 1; }
await_success j5 "$BIN/serve-restart.log"
drain "$BIN/serve-restart.log"
trap - EXIT
"$BIN/lgvstore" stats "$STORE" | grep -q "5 missions: 4 success, 0 failure, 1 unfinished" \
    || { echo "serve-smoke: store after restart"; "$BIN/lgvstore" stats "$STORE"; exit 1; }
"$BIN/lgvstore" show "$STORE" j5 >/dev/null
echo "serve-smoke: OK (store at $STORE)"
