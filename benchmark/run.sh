#!/usr/bin/env bash
# Builds the benchmark program and costd from this checkout into
# .bench_build/ and runs the program with the given arguments. Run it from
# the repository root, for example:
#
#   bash benchmark/run.sh --workload explore-front --seed 1 --seconds 25 --trace 0
#   bash benchmark/run.sh --workload all --seed 1 --repeat 3 --out a.json
#   bash benchmark/run.sh --compare a.json b.json
#
# Every build output, the Go build cache included, stays under .bench_build/
# so a run reads and writes nothing outside the checkout. The toolchain is
# used offline: nothing is downloaded.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -d "$root/benchmark" ]]; then
	echo "run.sh: run from the repository root (go.mod and benchmark/ not found in $root)" >&2
	exit 2
fi
mkdir -p "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/benchmark" && go build -o "$out/bench" . && go build -o "$out/costd" repro/cmd/costd)
exec "$out/bench" -costd "$out/costd" "$@"
