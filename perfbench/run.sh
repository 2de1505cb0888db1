#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from, then
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload figure1-k6 --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch stores all go
# under $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

bin=$out/perfbench
stale=
if [ -x "$bin" ]; then
	stale=$(find "$root" -path "$out" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)
fi
if [ ! -x "$bin" ] || [ -n "$stale" ]; then
	(cd "$root/perfbench" && go build -buildvcs=false -o "$bin" .) >&2
fi

commit=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
export PERFBENCH_COMMIT=$commit
export PERFBENCH_WORKDIR=$out
exec "$bin" "$@"
