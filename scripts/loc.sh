#!/usr/bin/env bash
# Non-generated, non-test Go lines per package: *_test.go, *_gen.go and
# assembly (*.s) are excluded, so the number is hand-maintained
# production code only. With no arguments every package directory under
# the repo is listed; pass directories to restrict the listing (and the
# total) to them, e.g.
#
#   scripts/loc.sh internal/sem internal/solver internal/nekbone cmd/kernelbench
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
	dirs=("$@")
else
	mapfile -t dirs < <(git ls-files '*.go' | xargs -n1 dirname | sort -u)
fi

total=0
for d in "${dirs[@]}"; do
	d=${d%/}
	n=0
	for f in "$d"/*.go; do
		case "$f" in
		*_test.go | *_gen.go) continue ;;
		esac
		[ -f "$f" ] && n=$((n + $(wc -l <"$f")))
	done
	[ "$n" -gt 0 ] && printf '%6d  %s\n' "$n" "$d"
	total=$((total + n))
done
printf '%6d  total\n' "$total"
