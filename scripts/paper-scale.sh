#!/usr/bin/env bash
# Figure 4 at the paper's own size — scale 1.0 (1,000,000 accounts), 100,000
# transactions — against the committed baseline BENCH_paper_scale.json
# (ROADMAP item 1 ii). Every field of the report is simulated (the options
# that produced it and each system's tpcb.Snapshot: TPS, elapsed nanoseconds,
# the cleaner's busy and overlapped time and every layer's counters), so the
# fresh run must equal the committed file byte for byte; a change that means
# to move a simulated number re-records the file in the same diff and says
# why.
#
# usage: scripts/paper-scale.sh [-update]
#   writes the fresh report to bench-artifacts/BENCH_paper_scale.json and
#   exits 1 if it differs from BENCH_paper_scale.json; -update re-records.
#   About half a minute on a 2-core machine.
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p bench-artifacts
fresh=bench-artifacts/BENCH_paper_scale.json
go run ./cmd/txnbench -fig 4 -scale 1.0 -txns 100000 -json | tee "$fresh"

if [ "${1:-}" = "-update" ]; then
	cp "$fresh" BENCH_paper_scale.json
	echo "re-recorded BENCH_paper_scale.json" >&2
elif ! diff -u BENCH_paper_scale.json "$fresh"; then
	echo "Figure 4 at the paper's size moved: re-record with scripts/paper-scale.sh -update and give the cause" >&2
	exit 1
fi
