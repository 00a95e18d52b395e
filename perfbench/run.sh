#!/usr/bin/env bash
# Builds dqm-serve, dqm-experiments and the benchmark from the checkout it is
# run in, then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload bulk-dqmv --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build in the checkout,
# the Go build cache included.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/dqm-serve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a dqm checkout (go.mod, cmd/ and perfbench/ present)" >&2
	exit 2
fi
root=$PWD
build=$root/.bench_build
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
export TMPDIR=$build/gotmp

go build -o "$build/bin/" ./cmd/dqm-serve ./cmd/dqm-experiments
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -bin "$build/bin" -work "$build" "$@"
