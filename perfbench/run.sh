#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload groupby-max --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary and the traced run's profiles.
set -euo pipefail

root=$(pwd)
[ -f "$root/go.mod" ] && [ -d "$root/internal" ] || {
	echo "perfbench: run from the repository root (go.mod and internal/ not found)" >&2
	exit 2
}
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" PPROF_TMPDIR="$out/pprof"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off
commit=""
if git -C "$root" rev-parse --verify -q HEAD >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse HEAD)
fi
(cd "$root/perfbench" && go build -o "$out/perfbench" -ldflags "-X main.commit=$commit" .)
exec "$out/perfbench" "$@"
