#!/usr/bin/env bash
# mpirun_tcp.sh — launch an N-process TCP-transport run on one host.
#
#   scripts/mpirun_tcp.sh NP CMD [ARGS...]
#
# Forks NP copies of CMD, appending `-transport=tcp -rank=$i -rdv=$file`
# to each, where $file is a fresh rendezvous file: rank 0 hosts the
# rendezvous broker on an ephemeral port and publishes its address there,
# the other ranks poll the file and check in (so no ports need reserving
# up front). Waits for every process and exits nonzero if any rank failed.
#
# Set MPIRUN_RDV to override the rendezvous — e.g. a cmtbroker URL
# (tcp://host:port/job) for runs with no shared filesystem. Set
# MPIRUN_OUT to a path prefix to send rank $i's stdout to ${MPIRUN_OUT}$i
# instead of sharing this script's.
#
# cmtbone is the multi-process host: every process prints the run
# header, and the process of the lowest surviving rank prints the same
# summary an in-process run prints (scripts/tcp_smoke.sh checks this).
#
#   scripts/mpirun_tcp.sh 4 ./bin/cmtbone -np 4 -steps 2
#   MPIRUN_OUT=out/rank scripts/mpirun_tcp.sh 4 ./bin/cmtbone -np 4 -loadbal -hot 1=4
#   MPIRUN_RDV=tcp://127.0.0.1:9333/job1 scripts/mpirun_tcp.sh 4 ./bin/cmtbone -np 4
set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 NP CMD [ARGS...]" >&2
    exit 2
fi
np=$1
shift
case $np in
    ''|*[!0-9]*) echo "$0: NP must be a positive integer, got '$np'" >&2; exit 2 ;;
esac
if [ "$np" -lt 1 ]; then
    echo "$0: NP must be >= 1" >&2
    exit 2
fi

rdv=${MPIRUN_RDV:-}
rdv_file=""
if [ -z "$rdv" ]; then
    rdv=$(mktemp -u "${TMPDIR:-/tmp}/mpirun_tcp.XXXXXX")
    rdv_file=$rdv
fi
pids=()
cleanup() {
    for pid in "${pids[@]}"; do
        kill "$pid" 2>/dev/null || true
    done
    if [ -n "$rdv_file" ]; then rm -f "$rdv_file"; fi
}
trap cleanup EXIT INT TERM

for ((i = 0; i < np; i++)); do
    if [ -n "${MPIRUN_OUT:-}" ]; then
        "$@" -transport=tcp -rank="$i" -rdv="$rdv" > "${MPIRUN_OUT}$i" &
    else
        "$@" -transport=tcp -rank="$i" -rdv="$rdv" &
    fi
    pids+=($!)
done

status=0
for ((i = 0; i < np; i++)); do
    if ! wait "${pids[$i]}"; then
        echo "$0: rank $i exited nonzero" >&2
        status=1
    fi
done
pids=()
exit $status
