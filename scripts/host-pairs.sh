#!/usr/bin/env bash
# Alternating pairs of the repository benchmark on two checkouts — the
# procedure for claiming (or denying) a host-side gain in a small sandbox
# (choosing-metrics §8): the run length is the benchmark's own, the side that
# goes first alternates so a noisy burst cannot favour one tree, and each
# side's median and quartiles are printed with the count of pairs the change
# won. A gain counts when the change wins at least nine tenths of the pairs
# and the medians differ by more than the parent's own quartile distance.
#
# usage: scripts/host-pairs.sh <parent-dir> <change-dir> <workload> [pairs=10] [trace=0]
#   e.g. git clone . /tmp/parent && git -C /tmp/parent checkout HEAD~1 &&
#        scripts/host-pairs.sh /tmp/parent . serial
#
# Each run is `go run ./benchmark -workload W -trace 0` in its tree (the
# benchmark is built once per tree first), so the host number measured is
# setup_s. With trace=1 the runs add the traced pass and the probes (about
# twice as long) and the per-system host metrics — wall µs, KB and objects
# allocated per transaction — are listed from the same runs; they gate
# nothing. Simulated metrics must be identical across all runs and both sides;
# the script says so if they are not. Run it on an otherwise idle machine: a
# concurrent build or test moves setup_s by 30–50 %.
set -euo pipefail

if [ $# -lt 3 ]; then
	sed -n '2,22p' "$0" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
trace=${5:-0}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
for side in parent change; do
	(cd "${!side}" && go build -o "$work/bench-$side" ./benchmark)
done

run() { # side, pair: one benchmark run, its full report kept
	(cd "${!1}" && "$work/bench-$1" -workload "$workload" -trace "$trace" -out "$work/$1.$2.json") >/dev/null
}
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
	for side in $order; do
		run "$side" "$i"
	done
	echo "pair $i/$pairs done ($order)" >&2
done

python3 - "$work" "$pairs" "$workload" <<'EOF'
import json, sys
work, pairs, workload = sys.argv[1], int(sys.argv[2]), sys.argv[3]

def load(side):
    return [json.load(open(f"{work}/{side}.{i}.json")) for i in range(1, pairs + 1)]

def quartiles(xs):
    xs = sorted(xs)
    def q(p):  # linear interpolation between order statistics
        k = p * (len(xs) - 1)
        lo = int(k)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)
    return q(0.25), q(0.5), q(0.75)

def sims(r):  # the simulated end-to-end metrics of one run, as one comparable value
    return json.dumps({k: v["value"] for k, v in r["end_to_end"].items() if k.startswith("sim_")}, sort_keys=True)

runs = {side: load(side) for side in ("parent", "change")}
for side, rs in runs.items():
    bad = [i + 1 for i, r in enumerate(rs) if not r["correct"] or r["failed"]]
    if bad:
        print(f"{side}: runs {bad} were not correct or had failed operations")
    if len({sims(r) for r in rs}) != 1:
        print(f"{side}: simulated metrics differ between runs of one tree")
same = sims(runs["parent"][0]) == sims(runs["change"][0])
print(f"workload {workload}, {pairs} alternating pairs; simulated metrics "
      + ("identical on both sides" if same else "DIFFER between the sides"))

def values(section, name):
    return {side: [r[section][name]["value"] for r in rs] for side, rs in runs.items()}

def show(name, vals, unit, digits):
    for side in ("parent", "change"):
        q1, med, q3 = quartiles(vals[side])
        print(f"  {name} {side:6}: median {med:.{digits}f} {unit}  quartiles {q1:.{digits}f} – {q3:.{digits}f}  "
              f"(distance {q3 - q1:.{digits}f})  runs " + " ".join(f"{x:.{digits - 1}f}" for x in vals[side]))

setup = values("end_to_end", "setup_s")
show("setup_s", setup, "s", 4)
wins = sum(c < p for p, c in zip(setup["parent"], setup["change"]))
ties = sum(c == p for p, c in zip(setup["parent"], setup["change"]))
pq1, pmed, pq3 = quartiles(setup["parent"])
_, cmed, _ = quartiles(setup["change"])
print(f"  change wins {wins} of {pairs} pairs ({ties} ties); medians differ by {pmed - cmed:+.4f} s "
      f"= {100 * (pmed - cmed) / pmed:+.1f} % of the parent's, against a parent quartile distance of {pq3 - pq1:.4f} s")
gain = wins >= 0.9 * (pairs - ties) and (pmed - cmed) > (pq3 - pq1)
print("  verdict: " + ("gain shown" if gain else "no gain shown by the section-8 rule"))

per_layer = runs["parent"][0].get("per_layer") or {}
for name in sorted(k for k in per_layer if k.startswith(("host.wall_us", "host.alloc"))):
    show(name, values("per_layer", name), per_layer[name].get("unit", ""), 2)
EOF
