// Command tpcb runs the modified TPC-B benchmark (§5.1 of the paper) on one
// of the three measured configurations and prints the disk geometry, the
// transaction rate plus the underlying file system, cleaner, lock, and log
// statistics, and a per-proc breakdown of where simulated time went.
//
// Usage:
//
//	tpcb -system kernel-lfs -scale 0.05 -txns 5000
//	tpcb -system user-ffs
//	tpcb -system user-lfs -mpl 8 -groupcommit 8 -fastsync
//	tpcb -system user-lfs -mpl 8 -groupcommit 8
//	tpcb -system kernel-lfs -cleaner idle
//	tpcb -system kernel-lfs -mpl 8 -trace trace.json -metrics metrics.json
//	tpcb -system kernel-lfs -mpl 64 -cpuprofile cpu.pprof -wallstats
//
// -trace writes a Chrome trace-event file (load it at ui.perfetto.dev);
// -metrics writes the full snapshot (result, stats sections, attribution,
// metrics registry) as JSON. Both are byte-identical across runs with the
// same flags: the simulation is deterministic and the tracer never perturbs
// simulated time. -cpuprofile/-memprofile profile the simulator itself, and
// -wallstats adds the (inherently nondeterministic) wall-clock speed line to
// the report and the snapshot, so keep it off when diffing runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/sim"
	"repro/internal/tpcb"
)

func main() {
	system := flag.String("system", "kernel-lfs", "configuration: user-ffs, user-lfs, kernel-lfs")
	scale := flag.Float64("scale", 0.05, "TPC-B scale factor (1.0 = 1,000,000 accounts)")
	txns := flag.Int("txns", 5000, "transactions to run")
	mpl := flag.Int("mpl", 1, "multiprogramming level (concurrent simulated clients)")
	groupCommit := flag.Int("groupcommit", 1, "concurrent committers that share one commit force or flush (every commit is durable when it returns; at -mpl 1 each forces alone)")
	cleaner := flag.String("cleaner", "sync", "LFS cleaning discipline: sync (on the critical path) or idle (overlapped with foreground idle windows)")
	fastSync := flag.Bool("fastsync", false, "model fast user-level synchronization (no test-and-set penalty)")
	logSeg := flag.Int64("logseg", 0, "WAL segment rotation threshold in payload bytes (0 = wal default)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file (open at ui.perfetto.dev)")
	metricsOut := flag.String("metrics", "", "write the metrics snapshot (result, stats, attribution, registry) as JSON")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the run (go tool pprof)")
	wallStats := flag.Bool("wallstats", false, "report simulator wall-clock speed (wall ns, dispatches, events/s); nondeterministic, so off by default")
	flag.Parse()
	if err := tpcb.CheckScale("-scale", *scale); err != nil {
		fatal(err)
	}

	costs := sim.SpriteCosts()
	if *fastSync {
		costs = sim.FastSyncCosts()
	}
	cfg := tpcb.ScaledConfig(*scale)
	fmt.Printf("database: %d accounts, %d tellers, %d branches; %d transactions\n",
		cfg.Accounts, cfg.Tellers, cfg.Branches, *txns)

	rig, err := tpcb.BuildRig(tpcb.RigOptions{
		Kind:            *system,
		Config:          cfg,
		Costs:           costs,
		GroupCommit:     *groupCommit,
		ExpectedTxns:    *txns,
		CleanerMode:     *cleaner,
		LogSegmentBytes: *logSeg,
		Trace:           true,
	})
	if err != nil {
		fatal(err)
	}
	m := rig.Dev.Model()
	stored, devBlocks := rig.Dev.StoredBlocks(), m.NumBlocks
	// The line keeps the "1 ×" device count it has always printed, for
	// scripts that parse it.
	fmt.Printf("disk: 1 × %d blocks (%d MB), %d cylinders, average seek %.1f ms; %d blocks hold data after load (%.1f %%), %d free\n",
		m.NumBlocks, m.SizeBytes()>>20, m.NumBlocks/m.CylinderBlocks, m.AvgSeekTime().Seconds()*1000,
		stored, 100*float64(stored)/float64(devBlocks), devBlocks-stored)
	var logged0 int64
	if ls := rig.LFSStats(); ls != nil {
		logged0 = ls.BlocksLogged
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	start := sim.WallNow()
	res, err := rig.RunMPL(cfg, *txns, *mpl)
	wall := sim.WallNow().Sub(start)
	if err != nil {
		fatal(err)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	snap := rig.Snapshot(tpcb.MixedResult{Result: res})
	if *wallStats {
		ws := &tpcb.WallStats{WallNS: wall.Nanoseconds(), Dispatches: res.Dispatches}
		if secs := wall.Seconds(); secs > 0 {
			ws.EventsPerSec = float64(res.Dispatches) / secs
		}
		snap.Wall = ws
	}
	fmt.Print(snap.Render())
	if ls := rig.LFSStats(); ls != nil {
		fmt.Printf("log: %d blocks logged over the run, %.2f wraps of the disk\n",
			ls.BlocksLogged-logged0, float64(ls.BlocksLogged-logged0)/float64(devBlocks))
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := rig.Tracer.WriteChrome(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\ntrace: %d events → %s\n", rig.Tracer.EventCount(), *traceOut)
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fatal(err)
		}
		if err := snap.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("metrics: %s\n", *metricsOut)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "tpcb: %v\n", err)
	os.Exit(1)
}
