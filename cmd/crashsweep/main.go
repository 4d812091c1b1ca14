// Command crashsweep runs the deterministic crash-point fault-injection
// sweep over the three TPC-B transaction systems: a golden run counts the
// simulated disk's write operations, then each sampled crash point replays
// the workload, kills the device mid-write (tearing the crashing write at a
// sector boundary unless -torn=false), and drives the system's recovery path —
// LFS roll-forward for kernel-lfs, WAL redo/undo on top of file-system
// recovery for user-lfs and user-ffs. Every point must come back with all
// acknowledged transactions durable, no partial transaction visible, a clean
// fsck, and the TPC-B balance invariants intact.
//
// Usage:
//
//	crashsweep                          # all three systems, defaults
//	crashsweep -system kernel-lfs -points 600 -txns 300
//	crashsweep -seed 42 -torn=false
//	crashsweep -json                    # machine-readable reports
//
// The sweep is deterministic: the same flags always produce byte-identical
// output. Exits non-zero if any crash point fails verification.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/crashsweep"
	"repro/internal/tpcb"
)

func main() {
	system := flag.String("system", "all", "system to sweep: kernel-lfs, user-lfs, user-ffs, or all")
	seed := flag.Uint64("seed", 1, "seed for the workload and torn-write prefixes")
	points := flag.Int("points", 500, "max crash points to sample (0 = every write op)")
	txns := flag.Int("txns", 250, "transactions in the golden run")
	torn := flag.Bool("torn", true, "tear the crashing write (persist a prefix of its sectors)")
	scale := flag.Float64("diskscale", 0.7, "disk size scale (smaller exercises the cleaner)")
	logSeg := flag.Int64("logseg", 0, "WAL segment rotation threshold in payload bytes for the user-level systems (0 = wal default; small values put crash points on rotation and truncation)")
	jsonOut := flag.Bool("json", false, "emit each report as a JSON object instead of a table")
	snapshots := flag.Int("snapshots", 0, "open a read-only MVCC snapshot every Nth transaction and hold it across the next ones (0 = off)")
	flag.Parse()
	if err := tpcb.CheckScale("-diskscale", *scale); err != nil {
		fmt.Fprintf(os.Stderr, "crashsweep: %v\n", err)
		os.Exit(2)
	}

	systems := []string{"kernel-lfs", "user-lfs", "user-ffs"}
	if *system != "all" {
		systems = []string{*system}
	}
	failed := false
	for _, sys := range systems {
		rep, err := crashsweep.Run(crashsweep.Options{
			System:          sys,
			Txns:            *txns,
			Seed:            *seed,
			Torn:            *torn,
			MaxPoints:       *points,
			DiskScale:       *scale,
			LogSegmentBytes: *logSeg,
			Snapshots:       *snapshots,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "crashsweep: %s: %v\n", sys, err)
			os.Exit(1)
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				fmt.Fprintf(os.Stderr, "crashsweep: %v\n", err)
				os.Exit(1)
			}
		} else {
			fmt.Print(rep)
		}
		if !rep.OK() {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
