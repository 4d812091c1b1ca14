#!/usr/bin/env bash
# Where the simulator's own wall time goes. CPU-profiles Figure 4 at the
# paper's size and a contended multi-user TPC-B run on each system, and
# attributes every sample, using only `go tool pprof -traces`, two ways:
#   - by package: the innermost repro/internal/<pkg> frame of its stack
#     ("none" when the stack has no such frame: the GC's own workers, the
#     Go scheduler's idle loop);
#   - by kind: alloc/GC (a stack through the allocator or a GC worker), the
#     Go scheduler (goroutine park, handoff and wake-up: the simulated
#     scheduler's token passes), and the rest.
# Shares, not times, go to BENCH_wall_profile.json: a share is comparable
# across machines, a wall time is not. Nothing gates on the file; it records
# where a simulator speed-up should be looked for, and a change that moves
# the time from one package to another shows in the diff.
#
# usage: scripts/wall-profile.sh [label=dir ...]
#   e.g. git clone . /tmp/parent && git -C /tmp/parent checkout HEAD~1 &&
#        scripts/wall-profile.sh parent=/tmp/parent change=.
#   Each dir is a checkout of this repository (default: this=.); its commands
#   are built there and profiled one at a time, about 40 s per checkout on a
#   2-core machine. Run it on an otherwise idle machine.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
[ $# -eq 0 ] && set -- this=.

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

runs=("txnbench -fig 4 -scale 1.0 -txns 100000")
for system in user-ffs user-lfs kernel-lfs; do
	# 200,000 transactions: about 5 s, enough samples for a share.
	runs+=("tpcb -system $system -scale 0.02 -txns 200000 -mpl 64 -groupcommit 8")
done

for arg in "$@"; do
	label=${arg%%=*}
	dir=$(cd "${arg#*=}" && pwd)
	mkdir -p "$work/$label"
	(cd "$dir" && go build -o "$work/$label/" ./cmd/txnbench ./cmd/tpcb)
	git -C "$dir" describe --always --dirty >"$work/$label/commit"
	for i in "${!runs[@]}"; do
		read -r cmd rest <<<"${runs[$i]}"
		# shellcheck disable=SC2086 # the run's flags are split on purpose
		"$work/$label/$cmd" $rest -cpuprofile "$work/$label/$i.pprof" >/dev/null
		go tool pprof -traces "$work/$label/$cmd" "$work/$label/$i.pprof" >"$work/$label/$i.traces" 2>/dev/null
		echo "$label: ${runs[$i]} profiled" >&2
	done
done

python3 - "$work" "$root/BENCH_wall_profile.json" "${runs[@]}" -- "$@" <<'EOF'
import json, re, sys

work, out = sys.argv[1], sys.argv[2]
sep = sys.argv.index("--")
runs, labels = sys.argv[3:sep], [a.split("=", 1)[0] for a in sys.argv[sep + 1:]]

UNIT = {"ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1.0}
ALLOC_GC = re.compile(r"^runtime\.(mallocgc|newobject|makeslice|growslice|gcBgMarkWorker|gcAssistAlloc|gcDrain|gcStart|bgsweep|bgscavenge|markroot|scanobject|(\(\*mheap\)|\(\*mcache\)|\(\*mcentral\))\.)")
SCHED = re.compile(r"^runtime\.(schedule|findRunnable|park_m|gopark|goready|ready|wakep|startm|stopm|mPark|futex|notesleep|notewakeup|chansend|chanrecv|selectgo|goschedImpl|mcall)\b")

def samples(path):
    """Yields (seconds, frames innermost first) for each stack in pprof -traces output."""
    stack, value = [], 0.0
    for line in open(path):
        if line.startswith("-----------+"):
            if stack:
                yield value, stack
            stack = []
            continue
        m = re.match(r"^\s+([\d.]+)(ns|us|µs|ms|s)\s+(\S+)", line)
        if m:
            value, stack = float(m.group(1)) * UNIT[m.group(2)], [m.group(3)]
        elif stack and line.strip():
            stack.append(line.split()[0])
    if stack:
        yield value, stack

def package(stack):
    for f in stack:
        m = re.match(r"^repro/internal/([^./]+)", f)
        if m:
            return m.group(1)
    return "none"

def kind(stack):
    if any(ALLOC_GC.match(f) for f in stack):
        return "alloc/GC"
    if any(SCHED.match(f) for f in stack):
        return "scheduler"
    return "rest"

def shares(d, total):
    return {k: round(v / total, 3) for k, v in sorted(d.items(), key=lambda kv: (-kv[1], kv[0]))}

report = {"about": "shares of CPU-profile samples: by the innermost repro/internal package "
                   "on the stack, and by alloc/GC, Go scheduler and the rest "
                   "(scripts/wall-profile.sh)", "trees": []}
for label in labels:
    tree = {"label": label, "commit": open(f"{work}/{label}/commit").read().strip(), "runs": []}
    for i, run in enumerate(runs):
        by_pkg, by_kind, total = {}, {}, 0.0
        for v, stack in samples(f"{work}/{label}/{i}.traces"):
            by_pkg[package(stack)] = by_pkg.get(package(stack), 0.0) + v
            by_kind[kind(stack)] = by_kind.get(kind(stack), 0.0) + v
            total += v
        # The profiler samples at 100 Hz: one sample is 10 ms of CPU.
        tree["runs"].append({"run": run, "samples": round(total / 0.01),
                             "by_package": shares(by_pkg, total), "by_kind": shares(by_kind, total)})
    report["trees"].append(tree)
with open(out, "w") as f:
    json.dump(report, f, indent=1, ensure_ascii=False)
    f.write("\n")
print(f"wrote {out}", file=sys.stderr)
for tree in report["trees"]:
    for r in tree["runs"]:
        top = ", ".join(f"{k} {v:.1%}" for k, v in list(r["by_package"].items())[:6])
        print(f"{tree['label']:>8}  {r['run']}: {top}")
EOF
