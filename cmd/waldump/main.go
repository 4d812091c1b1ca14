// Command waldump prints a human-readable dump of a libtp write-ahead log:
// the checkpoint anchor, every segment's header, and each 4KB block's CRC
// status and the records inside it. Because the simulated disk lives only in
// memory, waldump builds its own image: it runs a small TPC-B workload on one
// of the user-level systems and then dumps the log it produced. Small -segbytes values force rotation so the dump shows a
// multi-segment log; -checkpoint ends the run with a checkpoint so the
// anchor, the low-water mark, and segment truncation are visible too.
//
// Usage:
//
//	waldump                              # user-lfs, 50 txns, default segments
//	waldump -segbytes 4096 -txns 200     # many small segments
//	waldump -system user-ffs -checkpoint
//	waldump -segbytes 4096 -checkpoint
//
// The run is deterministic: the same flags always produce the same dump.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/sim"
	"repro/internal/tpcb"
	"repro/internal/wal"
)

func main() {
	system := flag.String("system", "user-lfs", "system whose log to build and dump: user-lfs or user-ffs")
	txns := flag.Int("txns", 50, "transactions to run before dumping")
	scale := flag.Float64("scale", 0.01, "TPC-B scale factor for the workload")
	segBytes := flag.Int64("segbytes", 0, "WAL segment rotation threshold in payload bytes (0 = wal default)")
	checkpoint := flag.Bool("checkpoint", false, "checkpoint the log after the workload (shows truncation)")
	flag.Parse()

	if *system != "user-lfs" && *system != "user-ffs" {
		fatal(fmt.Errorf("unknown -system %q (want user-lfs or user-ffs)", *system))
	}
	if err := tpcb.CheckScale("-scale", *scale); err != nil {
		fatal(err)
	}

	cfg := tpcb.ScaledConfig(*scale)
	rig, err := tpcb.BuildRig(tpcb.RigOptions{
		Kind:            *system,
		Config:          cfg,
		Costs:           sim.SpriteCosts(),
		ExpectedTxns:    *txns,
		LogSegmentBytes: *segBytes,
	})
	if err != nil {
		fatal(err)
	}
	res, err := rig.RunMPL(cfg, *txns, 1)
	if err != nil {
		fatal(err)
	}
	if *checkpoint {
		if err := rig.Env.Checkpoint(); err != nil {
			fatal(err)
		}
	}

	fmt.Printf("%s: %d txns in %.1fs simulated; dumping %s\n\n",
		res.System, res.Txns, res.Elapsed.Seconds(), rig.Env.LogPath())
	w := bufio.NewWriter(os.Stdout)
	if err := wal.Dump(w, rig.FS, rig.Env.LogPath()); err != nil {
		w.Flush()
		fatal(err)
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "waldump: %v\n", err)
	os.Exit(1)
}
