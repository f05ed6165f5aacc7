#!/usr/bin/env bash
# Builds the benchmark and the rvserved daemon from the checkout it is run
# in, then runs the benchmark. Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload tables --seed 1 --seconds 10 --trace 0
#
# Every build output, Go build cache and scratch file lands under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/experiments" || ! -d "$root/cmd/rvserved" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a repository checkout (needs go.mod, internal/, cmd/rvserved and perfbench/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -o "$out/rvserved" ./cmd/rvserved
(cd perfbench && go build -o "$out/perfbench" .)

exec "$out/perfbench" -root "$root" -bin "$out" "$@"
