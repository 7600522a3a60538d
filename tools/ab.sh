#!/usr/bin/env bash
# Paired A/B of the repository's benchmark between two versions of the tree —
# the protocol every performance claim in ROADMAP.md's log is measured by:
#
#   tools/ab.sh BASE HEAD -workload W [-pairs N] [-seed S] [-seconds T] [-dir D] [-gctrace]
#
# BASE and HEAD are git revisions, or directories holding a checkout (`.` is
# the working tree with its uncommitted changes). Each side is exported once
# into its own directory under D (default: a fresh temporary directory; it is
# kept, with every run's full output, and named at the end) and run there with
# the benchmark driver's own command, `bash benchmark/run.sh`, which builds
# into that directory's .bench_build — so the first run of a side builds it
# and the rest reuse the cache. Pair i runs both sides at seed S+i (default S:
# taken from the clock, so the seeds are ones nobody tuned against), the side
# that goes first alternating pair by pair, and the two data directories
# (benchmark/out) swapped between the sides every second pair. Per end-to-end
# metric of BENCHMARK.json it prints both sides' medians and quartiles, the
# win count and a verdict (tools/abstat has the rule). A run that exits
# non-zero — the benchmark failed, or the kernel killed it — does not stop the
# A/B: it is recorded as a killed run of its side, with its exit status and
# the last line of its output, and abstat leaves its pair out of the medians
# and grants no gain to a head side with a killed run. With -gctrace every run
# is made under GODEBUG=gctrace=1 and reported-only rows follow the table:
# each side's median [q1–q3] of peak live heap (the largest live heap after a
# collection in the run, which the gated heap_mb, sampled before the window,
# does not see), of its number of collections and of its GC CPU share.
#
# The exports are `git archive` trees, not `git worktree`s: they leave nothing
# registered in .git and HEAD may be a dirty working tree.
set -euo pipefail
usage() { sed -n '2,6p' "$0" >&2; exit 2; }
[ $# -ge 2 ] || usage
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
base="$1" head="$2"; shift 2
workload="" pairs=10 seed=$(( $(date +%s) % 100000 * 10 )) seconds="" dir="" gctrace=""
while [ $# -gt 0 ]; do
	case "$1" in
	-gctrace|--gctrace) gctrace=1; shift; continue ;;
	-workload|--workload) workload="$2" ;;
	-pairs|--pairs) pairs="$2" ;;
	-seed|--seed) seed="$2" ;;
	-seconds|--seconds) seconds="$2" ;;
	-dir|--dir) dir="$2" ;;
	*) usage ;;
	esac
	shift 2
done
[ -n "$workload" ] || usage
[ -n "$dir" ] || dir="$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")"
mkdir -p "$dir/data/0" "$dir/data/1" "$dir/log"
dir="$(cd "$dir" && pwd)"

# export SIDE REF: REF's tree (a revision) or files (a directory) into $dir/SIDE.
export_side() {
	local dest="$dir/$1" ref="$2"
	rm -rf "$dest" && mkdir -p "$dest"
	if [ -d "$ref" ]; then
		git -C "$ref" ls-files -z --cached --others --exclude-standard |
			(cd "$ref" && while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done) |
			tar -C "$ref" --null -T - -cf - | tar -C "$dest" -xf -
	else
		git -C "$repo" archive "$ref" | tar -C "$dest" -xf -
	fi
}
export_side base "$base"
export_side head "$head"

# run SIDE SLOT SEED: one benchmark run of SIDE with its benchmark/out on data
# directory SLOT; the driver's JSON line (the last line of output that starts
# with "{" — under -gctrace a trace line can follow it) is appended to
# $dir/SIDE.jsonl, or, when the run exits non-zero, a killed record with its
# exit status and last line of output.
run() {
	local side="$1" slot="$2" s="$3" log="$dir/log/$1.$3.txt" status=0 last
	rm -rf "$dir/$side/benchmark/out" "$dir/data/$slot"/*
	ln -s "$dir/data/$slot" "$dir/$side/benchmark/out"
	(cd "$dir/$side" && env ${gctrace:+GODEBUG=gctrace=1} bash benchmark/run.sh -workload "$workload" -seed "$s" ${seconds:+-seconds "$seconds"}) >"$log" 2>&1 ||
		status=$?
	if ((status == 0)); then
		grep '^{' "$log" | tail -n 1 >>"$dir/$side.jsonl"
		return
	fi
	last="$(tail -n 1 "$log" | tr -d '\000-\037' | sed 's/[\\"]/\\&/g')"
	echo "ab: $side run at seed $s exited $status; see $log" >&2
	printf '{"killed": true, "exit": %d, "last": "%s"}\n' "$status" "$last" >>"$dir/$side.jsonl"
}
: >"$dir/base.jsonl"; : >"$dir/head.jsonl"; rm -f "$dir"/log/*.txt
echo "ab: $workload, $pairs pairs, seeds $seed..$((seed + pairs - 1)), base=$base head=$head, in $dir"
for ((i = 0; i < pairs; i++)); do
	s=$((seed + i)) slot=$((i / 2 % 2))
	if ((i % 2 == 0)); then
		run base "$slot" "$s"; run head $((1 - slot)) "$s"
	else
		run head $((1 - slot)) "$s"; run base "$slot" "$s"
	fi
	echo "ab: pair $((i + 1))/$pairs done (seed $s)"
done
cd "$repo" && go run ./tools/abstat -bench BENCHMARK.json ${gctrace:+-gctrace "$dir/log"} "$dir/base.jsonl" "$dir/head.jsonl"
echo "ab: full output of every run is in $dir/log"
