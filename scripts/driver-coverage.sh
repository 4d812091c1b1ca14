#!/usr/bin/env bash
# Driver-reached coverage (ROADMAP item 6): which statements of internal/ do
# the programs people actually run — the commands, the repository benchmark
# and the examples — reach, as opposed to what unit tests hold up?
#
# Builds every driver with -cover -coverpkg=./..., runs under one GOCOVERDIR
# the invocations CI already makes (at small scale), prints the share of
# internal/ statements reached (internal/analysis, the linter, excluded) and
# writes the functions no driver reaches to
# bench-artifacts/DRIVER_COVERAGE.txt. Every run is a deterministic
# simulation, so the share is the same number on every machine.
#
# usage: scripts/driver-coverage.sh [floor-percent]
#   exits 1 when the share is below the floor (CI's ratchet).
set -euo pipefail
cd "$(dirname "$0")/.."

floor=${1:-0}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
bin=$work/bin
export GOCOVERDIR=$work/cov
mkdir -p "$bin" "$GOCOVERDIR" bench-artifacts

go build -cover -coverpkg=./... -o "$bin/" ./cmd/... ./benchmark ./examples/...

run() { # every driver must succeed; its output is not the point here
	echo "+ $*" >&2
	(cd "$work" && "$bin/$1" "${@:2}") >/dev/null
}

# 1,000 transactions: at 500 the cleaner ablation's log no longer wraps far
# enough for a pass to relocate a live pointer block.
for fig in all mpl scan fsync; do
	run txnbench -fig $fig -scale 0.02 -txns 1000
done
# The JSON stream carries each report's headline metrics, which the tables
# print only in part (CI writes the scan and fsync sweeps with -json too).
for fig in all fsync; do
	run txnbench -fig $fig -scale 0.02 -txns 1000 -json
done

run tpcb -system user-lfs -scale 0.02 -txns 500 -mpl 64 -groupcommit 8
run tpcb -system user-lfs -scale 0.02 -txns 300 -groupcommit 8
run tpcb -system user-ffs -scale 0.02 -txns 300 -groupcommit 8
run tpcb -system user-ffs -scale 0.02 -txns 500 -mpl 8 -groupcommit 8
run tpcb -system kernel-lfs -scale 0.02 -txns 500 -mpl 8 -groupcommit 8 -cleaner idle \
	-metrics metrics.json -trace trace.json
run tpcb -system user-lfs -scale 0.02 -txns 300 -fastsync -wallstats
# A batch too large for one summary block: a chain of summary-only partials.
run tpcb -system kernel-lfs -scale 0.02 -txns 500 -mpl 64 -groupcommit 64
# Hundreds of 4 KB log segments created and deleted beside the growing history
# relation: the root directory shrinks, and the relation's blocks interleave
# with the segments' until its extent list overflows the inode's twelve inline
# extents (a log that grew a block at a time used to be that file).
run tpcb -system user-ffs -scale 0.02 -txns 2000 -logseg 4096

sweep="-seed 1 -txns 120 -torn"
run crashsweep -system all $sweep -points 150 -diskscale 0.7
run crashsweep -system user-lfs $sweep -points 150 -diskscale 0.7 -logseg 4096
run crashsweep -system user-ffs $sweep -points 150 -diskscale 0.7 -logseg 4096
run crashsweep -system user-lfs $sweep -points 150 -diskscale 0.7 -logseg 16384
run crashsweep -system user-ffs $sweep -points 150 -diskscale 0.7 -logseg 16384
run crashsweep -system kernel-lfs $sweep -points 120 -snapshots 4
run crashsweep -system user-lfs $sweep -points 120 -snapshots 4
run crashsweep -system kernel-lfs -seed 2 -txns 220 -points 0 -torn
# The summary-only step's sweeps, sampled.
for logseg in 4096 16384; do
	run crashsweep -system user-lfs -seed 1 -txns 400 -points 40 -torn -diskscale 0.7 -logseg $logseg
done
run crashsweep -system user-lfs -seed 1 -txns 600 -points 40 -torn -diskscale 0.7
run crashsweep -system kernel-lfs -seed 1 -txns 600 -points 40 -torn -diskscale 0.7
run crashsweep -system user-lfs -seed 2 -txns 220 -points 0 -torn
run crashsweep -system user-ffs -seed 2 -txns 220 -points 0 -torn

run benchmark -quick -trace 1

run waldump
run waldump -segbytes 4096 -txns 200
run waldump -system user-ffs -checkpoint
run lfsdump -save lfs.img
run lfsdump -load lfs.img
for example in quickstart banking kvstore inventory; do
	run $example
done

go tool covdata textfmt -i="$GOCOVERDIR" -o "$work/profile.txt"

# Profile lines are "file:range statements count"; keep internal/ without the
# linter, and count a block reached if any run reached it.
share=$(awk '
	NR > 1 && $1 ~ /^repro\/internal\// && $1 !~ /^repro\/internal\/analysis\// {
		stmts[$1] = $2
		if ($3 > 0) hit[$1] = 1
	}
	END {
		for (b in stmts) { total += stmts[b]; if (b in hit) reached += stmts[b] }
		printf "%d %d %.1f", reached, total, 100 * reached / total
	}' "$work/profile.txt")
read -r reached total percent <<<"$share"

out=bench-artifacts/DRIVER_COVERAGE.txt
{
	echo "driver-reached statements of internal/ (internal/analysis excluded): $reached of $total, $percent %"
	echo "functions no driver reaches:"
	go tool cover -func="$work/profile.txt" |
		awk '$1 ~ /^repro\/internal\// && $1 !~ /^repro\/internal\/analysis\// && $NF == "0.0%" { print "  " $1, $2 }'
} >"$out"
head -n 1 "$out"
echo "$(($(wc -l <"$out") - 2)) unreached functions listed in $out"

if awk -v p="$percent" -v f="$floor" 'BEGIN { exit !(p < f) }'; then
	echo "driver-reached share $percent % is below the floor of $floor %" >&2
	exit 1
fi
