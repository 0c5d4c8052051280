#!/usr/bin/env bash
# Builds htdserve and the benchmark program from source into .bench_build
# (Go build cache included, so nothing is written outside the checkout),
# then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload query-warm --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/htdserve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/htdserve and perfbench/ needed)" >&2
	exit 2
fi

build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$build/htdserve" ./cmd/htdserve
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -server "$build/htdserve" -out "$build/out" "$@"
