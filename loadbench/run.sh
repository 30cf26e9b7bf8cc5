#!/usr/bin/env bash
# Builds saccs-load from the checkout's sources and runs it from the checkout
# root. Every build and run artifact stays under .bench_build/ there.
#
#   bash loadbench/run.sh --workload cold-chat --seed 1 --seconds 14 --trace 0
set -euo pipefail
command -v go >/dev/null || PATH="/usr/local/go/bin:$PATH"
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build/loadbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -trimpath -o "$out/saccs-load" .)
exec "$out/saccs-load" -work "$out" "$@"
