// Command txnbench regenerates the paper's evaluation figures (Figures 4–7
// of "Transaction Support in a Log-Structured File System", Seltzer, ICDE
// 1993) and the ablations described in DESIGN.md, printing each as a table
// next to the paper's reference numbers.
//
// Usage:
//
//	txnbench -fig all                 # the figures figures.Figures marks for "all"
//	txnbench -fig 4 -scale 0.1 -txns 10000 -cleaner idle
//	txnbench -fig cleaner -json       # machine-readable: each TPC-B run's tpcb.Snapshot
//	txnbench -fig scan -scanners 2 -scans 1 -trace trace.json   # MVCC snapshot scans vs locking
//	txnbench -fig 4 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// The -fig keys, and which of them "all" runs, are figures.Figures. All
// elapsed times are simulated: the workloads run on a simulated RZ55 disk
// with a DECstation-like CPU cost model (see internal/sim).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/figures"
	"repro/internal/tpcb"
)

func main() {
	var keys []string
	for _, f := range figures.Figures {
		keys = append(keys, f.Key)
	}
	fig := flag.String("fig", "all", "figure to reproduce: "+strings.Join(keys, ", ")+", 7 (= 6), all")
	scale := flag.Float64("scale", 0.05, "TPC-B scale factor (1.0 = the paper's 1,000,000 accounts)")
	txns := flag.Int("txns", 5000, "transactions per measured run")
	cleaner := flag.String("cleaner", "", "override the LFS cleaning discipline for all rigs: sync or idle (default: each system's natural mode)")
	logSeg := flag.Int64("logseg", 0, "WAL segment rotation threshold in payload bytes for the user-level systems (0 = wal default)")
	jsonOut := flag.Bool("json", false, "emit each report as a JSON object instead of a table")
	traceOut := flag.String("trace", "", "with -fig scan: write the kernel-lfs snapshot-scan run's Chrome trace-event JSON (open at ui.perfetto.dev)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the figure runs (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the figure runs (go tool pprof)")
	scanners := flag.Int("scanners", 0, "with -fig scan: concurrent scan clients (0 = default 2)")
	scansEach := flag.Int("scans", 0, "with -fig scan: full account scans per scan client (0 = default 1)")
	flag.Parse()

	if *cleaner != "" && *cleaner != "sync" && *cleaner != "idle" {
		fmt.Fprintf(os.Stderr, "txnbench: unknown -cleaner %q (want sync or idle)\n", *cleaner)
		os.Exit(2)
	}
	if err := tpcb.CheckScale("-scale", *scale); err != nil {
		fmt.Fprintf(os.Stderr, "txnbench: %v\n", err)
		os.Exit(2)
	}
	var order []figures.Figure
	for _, f := range figures.Figures { // -fig 7 is Figure 6's report
		if *fig == f.Key || *fig == "7" && f.Key == "6" || *fig == "all" && f.All {
			order = append(order, f)
		}
	}
	if len(order) == 0 {
		fmt.Fprintf(os.Stderr, "txnbench: unknown figure %q\n", *fig)
		flag.Usage()
		os.Exit(2)
	}
	opts := figures.Options{Scale: *scale, Txns: *txns, CleanerMode: *cleaner, LogSegmentBytes: *logSeg, Scanners: *scanners, ScansEach: *scansEach}
	if err := run(order, opts, *jsonOut, *traceOut, *cpuProfile, *memProfile); err != nil {
		fmt.Fprintf(os.Stderr, "txnbench: %v\n", err)
		os.Exit(1)
	}
}

// run prints each figure of order, as a table or with jsonOut as a JSON
// stream of {"figure": name, "report": {...}, "metrics": {...}} objects, under
// the profiles asked for, and writes the scan sweep's trace to traceOut.
func run(order []figures.Figure, opts figures.Options, jsonOut bool, traceOut, cpuProfile, memProfile string) error {
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	for i, f := range order {
		rep, err := f.Run(opts)
		if scan, ok := rep.(*figures.ScanReport); ok && traceOut != "" && scan.Tracer != nil {
			err = writeFile(traceOut, scan.Tracer.WriteChrome)
		}
		if err == nil && jsonOut {
			err = enc.Encode(map[string]any{"figure": f.Name, "report": rep, "metrics": rep.Metrics()})
		}
		if err != nil {
			return fmt.Errorf("%s: %w", f.Name, err)
		}
		if !jsonOut {
			if i > 0 {
				fmt.Println()
			}
			fmt.Print(rep.String())
		}
	}
	if memProfile == "" {
		return nil
	}
	runtime.GC()
	return writeFile(memProfile, pprof.WriteHeapProfile)
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
