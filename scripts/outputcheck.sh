#!/usr/bin/env bash
# Byte-compares CLI output of a parent revision against the current checkout.
#
#   scripts/outputcheck.sh PARENT
#
# Exports PARENT (any git revision, e.g. HEAD) into a temporary directory
# with `git archive`, as scripts/benchpair.sh does, and builds
# cmd/experiments, cmd/rvsim and cmd/gathersim from it and from the current
# checkout, uncommitted changes included. Then it runs each invocation below
# on both builds and compares stdout and exit status, printing SAME or DIFF
# per invocation. The two `rvsim -plot` invocations print the charts that
# trace.Record samples through trajectory.Path. It exits non-zero when any
# invocation differs. The temporary directory is removed on exit. It is not
# a CI step: CI checks out a single commit.
set -euo pipefail

if [[ $# -ne 1 ]]; then
	echo "usage: $0 PARENT" >&2
	exit 2
fi

root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --verify "$1^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent" "$tmp/bin"
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent"
for side in parent change; do
	src=$tmp/parent
	[[ $side == change ]] && src=$root
	for cmd in experiments rvsim gathersim; do
		(cd "$src" && go build -o "$tmp/bin/$side-$cmd" "./cmd/$cmd")
	done
done

# One invocation per line: the command, then its arguments.
invocations=(
	"experiments"
	"experiments -seed 7 -workers 3"
	"experiments -grid v=0.25:1:0.25 -grid d=1:3:1 -samples 4 -seed 3"
	"experiments -run E1 -samples 5 -seed 2"
	"experiments -run E1 -samples 7 -sampler sobol -workers 1"
	"experiments -run E9"
	"experiments -run E10"
	"rvsim"
	"rvsim -tau 1.5 -chi -1 -algo search"
	"rvsim -plot"
	"rvsim -tau 1.5 -chi -1 -algo search -plot"
	"rvsim -samples 40 -seed 3"
	"rvsim -samples 9 -sampler sobol -algo search -chi -1"
	"rvsim -samples 8 -v 1 -chi -1 -horizon 3e4 -algo search"
	"gathersim"
	"gathersim -robot 1,1,0,1,0,0 -robot 0.5,2,0,1,0.3,0 -robot 0.75,1,1,-1,0,0.3 -horizon 200"
)

diffs=0
for inv in "${invocations[@]}"; do
	read -r cmd args <<< "$inv"
	for side in parent change; do
		# $args is split into flags on purpose.
		"$tmp/bin/$side-$cmd" $args > "$tmp/$side.out" 2> /dev/null && code=0 || code=$?
		echo "$code" > "$tmp/$side.code"
	done
	if cmp -s "$tmp/parent.out" "$tmp/change.out" && cmp -s "$tmp/parent.code" "$tmp/change.code"; then
		echo "SAME  $inv (exit $(cat "$tmp/change.code"))"
	else
		echo "DIFF  $inv (exit $(cat "$tmp/parent.code") -> $(cat "$tmp/change.code"))"
		diffs=$((diffs + 1))
	fi
done
if ((diffs > 0)); then
	echo "outputcheck: $diffs of ${#invocations[@]} invocations differ" >&2
	exit 1
fi
