#!/usr/bin/env bash
# Builds the benchmark program and textjoind from source into
# .bench_build/ at the repository root, then runs the benchmark:
#
#   bash perfbench/run.sh --workload resident --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --steady 5 --seconds 20   # steadiness self-check
#
# Every build and cache file stays inside .bench_build/.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/textjoind" ]; then
	echo "perfbench: $root is not a textjoin checkout (no go.mod or cmd/textjoind)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$root" && go build -o "$build/textjoind" ./cmd/textjoind)
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" "$@"
