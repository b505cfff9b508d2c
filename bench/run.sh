#!/usr/bin/env bash
# Builds the benchmark and runs it. Run from the root of the repository:
#
#   bash bench/run.sh --workload oneshot-mix --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/ in
# the checkout. Without the repository's sources next to bench/ there is
# nothing to build, and the script fails before printing any result.
set -euo pipefail

if [[ ! -f go.mod || ! -f bench/go.mod || ! -d cmd/dctl || ! -d cmd/dcserved || ! -d internal ]]; then
	echo "bench/run.sh: run from the root of a complete detcorr checkout" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off

go build -C bench -o "$out/bin/bench" .
exec "$out/bin/bench" "$@"
