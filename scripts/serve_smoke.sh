#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test of the simulation job server:
# start cmtserve, submit a job over HTTP, poll it to completion, stream
# its steps, run a job whose scenario crashes a rank (admitted, recovered
# in memory, done), then SIGINT the server and assert a clean shutdown
# with telemetry flushed. Exercises exactly the lifecycle an operator
# sees.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
logfile="$workdir/cmtserve.log"
metrics="$workdir/metrics.json"
bin="$workdir/cmtserve"

cleanup() {
    if [[ -n "${srv_pid:-}" ]] && kill -0 "$srv_pid" 2>/dev/null; then
        kill -9 "$srv_pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building cmtserve"
go build -o "$bin" ./cmd/cmtserve

# Port 0 would be ideal but the log line carries the resolved address;
# pick an uncommon fixed port and let the OS complain if taken.
addr="127.0.0.1:18371"
"$bin" -addr "$addr" -slots 2 -metrics "$metrics" >"$logfile" 2>&1 &
srv_pid=$!

echo "== waiting for the server to listen"
for _ in $(seq 1 50); do
    if grep -q "listening on" "$logfile" 2>/dev/null; then break; fi
    if ! kill -0 "$srv_pid" 2>/dev/null; then
        echo "FAIL: server exited early"; cat "$logfile"; exit 1
    fi
    sleep 0.1
done
grep -q "listening on" "$logfile" || { echo "FAIL: server never listened"; cat "$logfile"; exit 1; }

echo "== submitting a job"
created=$(curl -sf -X POST "http://$addr/jobs" \
    -d '{"tenant":"smoke","ranks":2,"local_elems":1,"steps":8}')
echo "$created"
job_id=$(echo "$created" | sed -n 's/.*"id": *\([0-9]*\).*/\1/p' | head -1)
[[ -n "$job_id" ]] || { echo "FAIL: no job id in response"; exit 1; }

echo "== rejecting a bad spec (expect 400)"
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$addr/jobs" -d '{"priority":1}')
[[ "$code" == "400" ]] || { echo "FAIL: bad spec returned $code, want 400"; exit 1; }

# wait_done polls a job until it is done; any other terminal state, or
# no completion within 10 s, fails the smoke.
wait_done() {
    local id=$1 state=""
    for _ in $(seq 1 100); do
        state=$(curl -sf "http://$addr/jobs/$id" | sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p' | head -1)
        [[ "$state" == "done" ]] && return 0
        [[ "$state" == "failed" || "$state" == "canceled" ]] && {
            echo "FAIL: job $id ended $state"; curl -s "http://$addr/jobs/$id"; exit 1; }
        sleep 0.1
    done
    echo "FAIL: job $id never completed (state: $state)"; exit 1
}

echo "== polling job $job_id to completion"
wait_done "$job_id"

echo "== streaming step events"
steps=$(curl -sfN "http://$addr/jobs/$job_id/steps" | grep -c '"step"' || true)
[[ "$steps" -ge 8 ]] || { echo "FAIL: streamed $steps step lines, want >= 8"; exit 1; }

echo "== submitting a job whose rank 1 crashes at step 12 (recovered in memory)"
created=$(curl -sf -X POST "http://$addr/jobs" \
    -d '{"tenant":"smoke","ranks":4,"local_elems":1,"steps":14,"faults":{"crashes":[{"rank":1,"step":12}]}}')
echo "$created"
crash_id=$(echo "$created" | sed -n 's/.*"id": *\([0-9]*\).*/\1/p' | head -1)
[[ -n "$crash_id" ]] || { echo "FAIL: no job id for the crash job"; exit 1; }
wait_done "$crash_id"
curl -sf "http://$addr/jobs/$crash_id" | grep -q '"steps_done": *14' || {
    echo "FAIL: crash job did not count 14 steps"; curl -s "http://$addr/jobs/$crash_id"; exit 1; }
curl -sf "http://$addr/metrics" | grep -q "\"job${crash_id}_fault_recoveries\": *[1-9]" || {
    echo "FAIL: crash job ran no recovery"; exit 1; }

echo "== checking /stats and /metrics"
curl -sf "http://$addr/stats" | grep -q '"slots"' || { echo "FAIL: /stats"; exit 1; }
curl -sf "http://$addr/metrics" | grep -q 'serve_jobs_done' || { echo "FAIL: /metrics"; exit 1; }

echo "== SIGINT: clean shutdown with telemetry flush"
kill -INT "$srv_pid"
for _ in $(seq 1 100); do
    kill -0 "$srv_pid" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$srv_pid" 2>/dev/null; then
    echo "FAIL: server still running 10s after SIGINT"; exit 1
fi
wait "$srv_pid" 2>/dev/null || true
srv_pid=""

grep -q "shutdown complete, telemetry flushed" "$logfile" || {
    echo "FAIL: no clean-shutdown marker in log"; cat "$logfile"; exit 1; }
[[ -s "$metrics" ]] || { echo "FAIL: metrics snapshot not written"; exit 1; }
grep -q '"counters"' "$metrics" || { echo "FAIL: metrics snapshot malformed"; exit 1; }
grep -q 'serve_jobs_done' "$metrics" || { echo "FAIL: job counters missing from snapshot"; exit 1; }

echo "PASS: serve smoke"
