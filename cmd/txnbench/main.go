// Command txnbench regenerates the paper's evaluation figures (Figures 4–7
// of "Transaction Support in a Log-Structured File System", Seltzer, ICDE
// 1993) and the ablations described in DESIGN.md, printing each as a table
// next to the paper's reference numbers.
//
// Usage:
//
//	txnbench -fig all                 # everything at the default scale
//	txnbench -fig 4 -scale 0.1 -txns 10000
//	txnbench -fig 6                   # SCAN test + crossover (Figures 6 and 7)
//	txnbench -fig sync|cleaner|commitbytes
//	txnbench -fig fsync               # Figure 4's margin under data sync vs inode at every Sync (not in "all")
//	txnbench -fig mpl                 # TPS vs multiprogramming level (not in "all")
//	txnbench -fig cleaner -json       # machine-readable output
//	txnbench -fig 4 -cleaner idle
//	txnbench -fig scan -scanners 2 -scans 1 -metrics BENCH_scan.json   # MVCC snapshot scans vs locking (not in "all")
//	txnbench -fig 4 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// All elapsed times are simulated: the workloads run on a simulated RZ55
// disk with a DECstation-like CPU cost model (see internal/sim).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/figures"
	"repro/internal/tpcb"
)

func main() {
	fig := flag.String("fig", "all", "figure to reproduce: 4, 5, 6, 7, sync, fsync, cleaner, commitbytes, mpl, scan, all")
	scale := flag.Float64("scale", 0.05, "TPC-B scale factor (1.0 = the paper's 1,000,000 accounts)")
	txns := flag.Int("txns", 5000, "transactions per measured run")
	cleaner := flag.String("cleaner", "", "override the LFS cleaning discipline for all rigs: sync or idle (default: each system's natural mode)")
	logSeg := flag.Int64("logseg", 0, "WAL segment rotation threshold in payload bytes for the user-level systems (0 = wal default)")
	jsonOut := flag.Bool("json", false, "emit each report as a JSON object instead of a table")
	traceOut := flag.String("trace", "", "with -fig scan: write the kernel-lfs snapshot-scan run's Chrome trace-event JSON (open at ui.perfetto.dev)")
	metricsOut := flag.String("metrics", "", "with -fig scan: write the full snapshot sweep as one JSON document")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the figure runs (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the figure runs (go tool pprof)")
	scanners := flag.Int("scanners", 0, "with -fig scan: concurrent scan clients (0 = default 2)")
	scansEach := flag.Int("scans", 0, "with -fig scan: full account scans per scan client (0 = default 1)")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "txnbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "txnbench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "txnbench: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "txnbench: %v\n", err)
			}
			f.Close()
		}()
	}

	if *cleaner != "" && *cleaner != "sync" && *cleaner != "idle" {
		fmt.Fprintf(os.Stderr, "txnbench: unknown -cleaner %q (want sync or idle)\n", *cleaner)
		os.Exit(2)
	}
	if err := tpcb.CheckScale("-scale", *scale); err != nil {
		fmt.Fprintf(os.Stderr, "txnbench: %v\n", err)
		os.Exit(2)
	}
	opts := figures.Options{
		Scale: *scale, Txns: *txns, CleanerMode: *cleaner, LogSegmentBytes: *logSeg,
		Scanners: *scanners, ScansEach: *scansEach,
	}

	type job struct {
		name string
		run  func() (fmt.Stringer, error)
	}
	jobs := map[string]job{
		"4": {"figure4", func() (fmt.Stringer, error) { return figures.Figure4(opts) }},
		"5": {"figure5", func() (fmt.Stringer, error) { return figures.Figure5(opts) }},
		"6": {"figure67", func() (fmt.Stringer, error) { return figures.Figure67(opts) }},
		"7": {"figure67", func() (fmt.Stringer, error) { return figures.Figure67(opts) }},
		"sync": {"sync", func() (fmt.Stringer, error) {
			return figures.AblationSync(opts)
		}},
		// What File.Sync writes, on both user-level systems; not part of
		// "all", whose Figure 4 already carries the default arm.
		"fsync": {"fsync", func() (fmt.Stringer, error) {
			return figures.AblationFsync(opts)
		}},
		"cleaner": {"cleaner", func() (fmt.Stringer, error) {
			return figures.AblationCleaner(opts)
		}},
		"commitbytes": {"commitbytes", func() (fmt.Stringer, error) {
			return figures.AblationCommitBytes(opts)
		}},
		// The MPL sweep runs 42 full benchmarks, so it is not part of "all".
		"mpl": {"mpl", func() (fmt.Stringer, error) {
			return figures.FigureMPL(opts)
		}},
		// The mixed OLTP + long-scan sweep (MVCC snapshot reads vs locking
		// scans); not part of "all".
		"scan": {"scan", func() (fmt.Stringer, error) {
			rep, err := figures.Scan(opts)
			if err != nil {
				return nil, err
			}
			if *metricsOut != "" {
				if err := writeJSON(*metricsOut, rep); err != nil {
					return nil, err
				}
			}
			if *traceOut != "" && rep.Tracer != nil {
				f, err := os.Create(*traceOut)
				if err != nil {
					return nil, err
				}
				if err := rep.Tracer.WriteChrome(f); err != nil {
					f.Close()
					return nil, err
				}
				if err := f.Close(); err != nil {
					return nil, err
				}
			}
			return rep, nil
		}},
	}

	var order []string
	if *fig == "all" {
		order = []string{"4", "5", "6", "sync", "cleaner", "commitbytes"}
	} else {
		if _, ok := jobs[*fig]; !ok {
			fmt.Fprintf(os.Stderr, "txnbench: unknown figure %q\n", *fig)
			flag.Usage()
			os.Exit(2)
		}
		order = []string{*fig}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	for i, key := range order {
		rep, err := jobs[key].run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "txnbench: %s: %v\n", jobs[key].name, err)
			os.Exit(1)
		}
		if *jsonOut {
			// One {"figure": name, "report": {...}} object per requested
			// figure, newline-separated (a JSON stream, jq-friendly).
			if err := enc.Encode(map[string]any{"figure": jobs[key].name, "report": rep}); err != nil {
				fmt.Fprintf(os.Stderr, "txnbench: %s: %v\n", jobs[key].name, err)
				os.Exit(1)
			}
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(rep.String())
	}
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
