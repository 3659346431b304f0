#!/usr/bin/env bash
# Builds the noxperf benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash noxperf/run.sh --workload fig8-ladder --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (Go build cache, temporary files,
# the binary, traces) goes under .bench_build/ in the current directory.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/noxperf" .)
exec "$out/noxperf" "$@"
