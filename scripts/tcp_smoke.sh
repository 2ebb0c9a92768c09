#!/usr/bin/env bash
# tcp_smoke.sh — end-to-end check that a multi-process cmtbone run over
# localhost TCP reports exactly what the in-process run reports. Each leg
# runs cmtbone once in a single process and once as 4 OS processes
# (file rendezvous; the plain leg also through a cmtbroker). Exactly one
# process must print the summary — the lowest surviving rank's — and its
# stdout, less the "transport:" line, must equal the in-process stdout
# byte for byte once the wall-time figure is masked. The summary is
# computed in the rank program by collectives, so this holds for load
# balancing, message faults, crash recovery and diagnostics alike.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d "${TMPDIR:-/tmp}/tcp_smoke.XXXXXX")
broker_pid=""
cleanup() {
    if [ -n "$broker_pid" ]; then kill "$broker_pid" 2>/dev/null || true; fi
    rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/cmtbone" ./cmd/cmtbone
go build -o "$workdir/cmtbroker" ./cmd/cmtbroker

base=(-np 4 -n 5 -local 2 -steps 6)
lb=(-loadbal -hot 1=4 -rebalance-every 2)
crash=(-ckpt "$workdir/ckpt" -ckpt-every 2 -faults '{"seed":7,"crashes":[{"rank":2,"step":4}]}')
msgs=(-faults '{"seed":3,"messages":{"drop":0.05,"corrupt":0.05,"delay":0.05,"delay_seconds":1e-5}}')

mask() {
    grep -v '^transport: tcp' "$1" | sed -E 's/^wall time: [0-9.]+s/wall time: <masked>/'
}

# leg NAME ARGS... runs one leg in-process and over TCP and compares.
leg() {
    local name=$1
    shift
    echo "== $name =="
    rm -rf "$workdir/ckpt"
    "$workdir/cmtbone" "${base[@]}" "$@" > "$workdir/$name.inproc"
    rm -rf "$workdir/ckpt"
    MPIRUN_OUT="$workdir/$name.rank" scripts/mpirun_tcp.sh 4 "$workdir/cmtbone" "${base[@]}" "$@"
    local printers
    printers=$(grep -l '^done:' "$workdir/$name.rank"* || true)
    if [ "$(echo "$printers" | grep -c .)" -ne 1 ]; then
        echo "tcp_smoke: FAIL ($name) — want exactly one process printing the summary, got: ${printers:-none}" >&2
        exit 1
    fi
    if ! diff <(mask "$workdir/$name.inproc") <(mask "$printers") >&2; then
        echo "tcp_smoke: FAIL ($name) — the 4-process summary differs from the in-process one" >&2
        exit 1
    fi
}

leg plain
leg loadbal "${lb[@]}"
leg faults "${msgs[@]}"
leg crash "${crash[@]}"
leg crash-loadbal "${lb[@]}" "${crash[@]}"
leg diag -diag

if ! grep -qx 'faults: killed=\[2\] in this process; .*' "$workdir/crash.rank2"; then
    echo "tcp_smoke: FAIL — the killed rank's process did not report its death:" >&2
    cat "$workdir/crash.rank2" >&2
    exit 1
fi

echo "== plain, cmtbroker rendezvous =="
"$workdir/cmtbroker" -listen 127.0.0.1:0 > "$workdir/broker.out" &
broker_pid=$!
addr=""
for _ in $(seq 100); do
    addr=$(sed -n 's/^cmtbroker listening on //p' "$workdir/broker.out")
    if [ -n "$addr" ]; then break; fi
    sleep 0.05
done
if [ -z "$addr" ]; then
    echo "tcp_smoke: FAIL — cmtbroker did not come up" >&2
    exit 1
fi
MPIRUN_RDV="tcp://$addr/smoke" MPIRUN_OUT="$workdir/broker.rank" \
    scripts/mpirun_tcp.sh 4 "$workdir/cmtbone" "${base[@]}"
if ! diff <(mask "$workdir/plain.inproc") <(mask "$workdir/broker.rank0") >&2; then
    echo "tcp_smoke: FAIL — the summary differs under broker rendezvous" >&2
    exit 1
fi
echo "tcp_smoke: OK — every leg's 4-process summary (file and broker rendezvous) is byte-identical to the in-process one"
