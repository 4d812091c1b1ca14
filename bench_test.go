// Package repro_test benches regenerate every experiment of the figure
// registry (figures.Figures: the paper's Figures 4–7 plus the DESIGN.md
// ablations) as Go benchmarks, one sub-benchmark per -fig key, each reporting
// its figure's headline metrics (figures.Report.Metrics). They are simulated
// quantities (the workloads run on a simulated RZ55 disk): "<i>:<system>-TPS"
// is row i's simulated transactions per simulated second, "sim-ms" simulated
// milliseconds, and so on. Wall-clock ns/op only reflects how fast the
// simulation executes.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The full-scale reproduction (the paper's exact sizing) is reached with
// cmd/txnbench -scale 1.0 -txns 100000.
package repro_test

import (
	"testing"

	"repro/internal/figures"
)

// BenchmarkFigures runs each figure at scale 0.01 and 600 transactions, the
// size the figure tests run at, small enough for a quick pass and still large
// enough for cache misses, commit forces and a wrapping log.
func BenchmarkFigures(b *testing.B) {
	for _, fig := range figures.Figures {
		b.Run(fig.Key, func(b *testing.B) {
			var rep figures.Report
			for b.Loop() {
				var err error
				if rep, err = fig.Run(figures.Options{Scale: 0.01, Txns: 600}); err != nil {
					b.Fatal(err)
				}
			}
			for name, v := range rep.Metrics() {
				b.ReportMetric(v, name)
			}
		})
	}
}
