#!/usr/bin/env bash
# Paired perfbench runs: a parent revision against the current checkout.
#
#   scripts/benchpair.sh [-n PAIRS] [-w WORKLOAD] [-s SEED] [-t SECONDS] PARENT
#   scripts/benchpair.sh -b REGEX [-n PAIRS] PARENT
#
# Exports PARENT (any git revision, e.g. HEAD~1) into a temporary directory
# with `git archive` — offline, and without registering a worktree in the
# repository, so an interrupted run leaves nothing behind in .git. Then it
# alternates `bash perfbench/run.sh --workload WORKLOAD --seed SEED
# --seconds SECONDS` between the parent and the current checkout, uncommitted
# changes included, PAIRS times. Odd pairs run the parent first and even
# pairs the change first, so a drift in machine load falls on both sides.
# Each checkout builds its own binaries under its own .bench_build/.
#
# It prints one row per end-to-end metric listed in BENCHMARK.json: the
# median of each side, the parent's quartiles, the change/parent ratio of
# the medians and the number of pairs the change won (by the metric's
# "better" direction). The temporary export and the runs' logs are
# removed on exit. Defaults: 10 pairs of `tables`, seed 1, 5 seconds.
#
# With -b, the pairs are go benchmarks of the root package instead: each
# side's test binary is built once (`go test -c`) and run as
# `go test -run '^$' -bench REGEX -count 1 -benchmem` would run it,
# alternating as above. It prints one row per benchmark: the median ns/op
# of each side, the parent's quartiles, the ratio, the pairs the change won
# (lower ns/op) and each side's median allocs/op.
set -euo pipefail

usage="usage: $0 [-n PAIRS] [-w WORKLOAD] [-s SEED] [-t SECONDS] PARENT
       $0 -b REGEX [-n PAIRS] PARENT"
pairs=10 workload=tables seed=1 seconds=5 bench=
while getopts "n:w:s:t:b:" opt; do
	case $opt in
	n) pairs=$OPTARG ;;
	w) workload=$OPTARG ;;
	s) seed=$OPTARG ;;
	t) seconds=$OPTARG ;;
	b) bench=$OPTARG ;;
	*) echo "$usage" >&2; exit 2 ;;
	esac
done
shift $((OPTIND - 1))
if [[ $# -ne 1 ]]; then
	echo "$usage" >&2
	exit 2
fi

root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --verify "$1^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent" "$tmp/runs"
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent"

# quartiles: the awk functions that sort a[1..n] and take its
# linear-interpolated quantiles.
quartiles='
	function sort(a, n,   i, j, x) {
		for (i = 2; i <= n; i++) {
			x = a[i]
			for (j = i - 1; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]
			a[j + 1] = x
		}
	}
	function q(a, n, p,   k, f) {
		k = 1 + (n - 1) * p; f = int(k)
		return f >= n ? a[n] : a[f] + (k - f) * (a[f + 1] - a[f])
	}'

if [[ -n $bench ]]; then
	(cd "$tmp/parent" && go test -c -o "$tmp/parent.test" .)
	(cd "$root" && go test -c -o "$tmp/change.test" .)
	# gobench SIDE DIR PAIR: one run of the side's benchmarks from its
	# package directory, as "SIDE PAIR NAME NS ALLOCS" lines.
	gobench() {
		(cd "$2" && "$tmp/$1.test" -test.run '^$' -test.bench "$bench" -test.count 1 -test.benchmem) |
			awk -v side="$1" -v pair="$3" '/^Benchmark/ {
				ns = allocs = "-"
				for (i = 3; i <= NF; i++) {
					if ($i == "ns/op") ns = $(i - 1)
					if ($i == "allocs/op") allocs = $(i - 1)
				}
				print side, pair, $1, ns, allocs
			}' >> "$tmp/runs/bench.txt"
		echo "pair $3: $1 done" >&2
	}
	for ((i = 1; i <= pairs; i++)); do
		if ((i % 2)); then
			gobench parent "$tmp/parent" "$i"
			gobench change "$root" "$i"
		else
			gobench change "$root" "$i"
			gobench parent "$tmp/parent" "$i"
		fi
	done
	printf '%s vs %s: %d pairs of -bench %s\n' \
		"$(git -C "$root" rev-parse --short "$rev")" "working tree" "$pairs" "$bench"
	printf '%-40s %12s %12s %25s %8s %6s %13s\n' benchmark parent change "parent q1..q3" ratio wins "allocs p/c"
	awk -v pairs="$pairs" "$quartiles"'
		!($3 in seen) { seen[$3] = 1; names[++m] = $3 }
		{ ns[$1, $3, $2] = $4; allocs[$1, $3, $2] = $5 }
		END {
			for (b = 1; b <= m; b++) {
				name = names[b]; n = wins = 0
				for (i = 1; i <= pairs; i++) {
					if (!(("parent", name, i) in ns) || !(("change", name, i) in ns)) continue
					n++; p[n] = ns["parent", name, i]; c[n] = ns["change", name, i]
					pa[n] = allocs["parent", name, i]; ca[n] = allocs["change", name, i]
					if (c[n] + 0 < p[n] + 0) wins++
				}
				if (n == 0) continue
				sort(p, n); sort(c, n); sort(pa, n); sort(ca, n)
				mp = q(p, n, 0.5); mc = q(c, n, 0.5)
				printf "%-40s %12.6g %12.6g %12.6g..%-12.6g %8.4f %3d/%d %6s/%-6s\n",
					name, mp, mc, q(p, n, 0.25), q(p, n, 0.75), (mp != 0 ? mc / mp : 0), wins, n,
					q(pa, n, 0.5), q(ca, n, 0.5)
			}
		}' "$tmp/runs/bench.txt"
	exit 0
fi

# The end-to-end metrics and their directions, from BENCHMARK.json.
metrics=$(awk '
	/"end_to_end"/ { in_e2e = 1 }
	/"per_layer"/ { in_e2e = 0 }
	in_e2e && /"name"/ { gsub(/[",]/, ""); name = $2 }
	in_e2e && /"better"/ { gsub(/[",]/, ""); print name, $2 }
' "$root/BENCHMARK.json")

# run SIDE DIR PAIR: one perfbench run, its result line kept in runs/.
run() {
	local out="$tmp/runs/$1.$3"
	if ! (cd "$2" && bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds") > "$out.log" 2>&1; then
		echo "benchpair: $1 run $3 failed:" >&2
		tail -n 20 "$out.log" >&2
		exit 1
	fi
	tail -n 1 "$out.log" > "$out.json"
	echo "pair $3: $1 done" >&2
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run parent "$tmp/parent" "$i"
		run change "$root" "$i"
	else
		run change "$root" "$i"
		run parent "$tmp/parent" "$i"
	fi
done

# value SIDE PAIR METRIC: the metric's value in one run's result line.
value() {
	grep -o "\"$3\":{\"value\":[^,}]*" "$tmp/runs/$1.$2.json" | sed 's/.*://'
}

printf '%s vs %s: %d pairs of --workload %s --seed %s --seconds %s\n' \
	"$(git -C "$root" rev-parse --short "$rev")" "working tree" "$pairs" "$workload" "$seed" "$seconds"
printf '%-14s %12s %12s %25s %8s %6s\n' metric parent change "parent q1..q3" ratio wins
while read -r name better; do
	[[ -n $name ]] || continue
	for ((i = 1; i <= pairs; i++)); do
		echo "$(value parent "$i" "$name") $(value change "$i" "$name")"
	done | awk -v name="$name" -v better="$better" "$quartiles"'
		NF == 2 {
			n++; p[n] = $1; c[n] = $2
			if ((better == "lower" && $2 < $1) || (better == "higher" && $2 > $1)) wins++
		}
		END {
			if (n == 0) { printf "%-14s (not reported)\n", name; exit }
			sort(p, n); sort(c, n)
			mp = q(p, n, 0.5); mc = q(c, n, 0.5)
			printf "%-14s %12.6g %12.6g %12.6g..%-12.6g %8.4f %3d/%d\n",
				name, mp, mc, q(p, n, 0.25), q(p, n, 0.75), (mp != 0 ? mc / mp : 0), wins, n
		}'
done <<< "$metrics"
