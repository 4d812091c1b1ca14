// Package repro_test benches regenerate every result figure of the paper
// (Figures 4–7) plus the DESIGN.md ablations as Go benchmarks. Reported
// metrics are simulated quantities (the workloads run on a simulated RZ55
// disk): "TPS" is simulated transactions per simulated second, "sim-ms/op"
// is simulated elapsed milliseconds, and so on. Wall-clock ns/op only
// reflects how fast the simulation executes.
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

// benchOpts keeps each benchmark iteration around a second of wall-clock
// time while exercising cache-miss, commit-force, and cleaner behaviour.
func benchOpts() figures.Options {
	return figures.Options{Scale: 0.01, Txns: 600}
}

// BenchmarkFigure4 regenerates Figure 4: TPC-B throughput of the user-level
// transaction manager on the read-optimized FS and on LFS, and of the
// kernel-embedded transaction manager on LFS.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := figures.Figure4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, row := range rep.Rows {
				b.ReportMetric(row.TPS, row.System+"-TPS")
			}
			b.ReportMetric(rep.Rows[1].TPS/rep.Rows[0].TPS, "lfs/ffs")
			b.ReportMetric(rep.Rows[2].TPS/rep.Rows[1].TPS, "kernel/user")
		}
	}
}

// BenchmarkFigure5 regenerates Figure 5: the non-transaction workloads on a
// normal kernel vs the transaction-enabled kernel.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := figures.Figure5(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, row := range rep.Rows {
				b.ReportMetric(row.DeltaPct, row.Workload+"-overhead-%")
			}
		}
	}
}

// BenchmarkFigure6 regenerates Figure 6: the key-order SCAN after random
// updates, where the read-optimized layout wins.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := figures.Figure67(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(rep.FFSScan.Seconds()*1000, "ffs-scan-sim-ms")
			b.ReportMetric(rep.LFSScan.Seconds()*1000, "lfs-scan-sim-ms")
			b.ReportMetric(rep.ScanPenalty, "lfs/ffs-scan-ratio")
		}
	}
}

// BenchmarkFigure7 regenerates Figure 7: the total-elapsed-time crossover
// between the two file systems.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := figures.Figure67(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(rep.CrossoverTxns, "crossover-txns")
			b.ReportMetric(rep.CrossoverTime.Minutes(), "crossover-sim-min")
		}
	}
}

// BenchmarkAblationSync quantifies §5.1's synchronization-cost analysis.
func BenchmarkAblationSync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := figures.AblationSync(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(rep.SlowUser, "user-TPS-no-TAS")
			b.ReportMetric(rep.FastUser, "user-TPS-fast-sync")
			b.ReportMetric(rep.SlowKernel, "kernel-TPS")
		}
	}
}

// BenchmarkAblationCleaner quantifies §5.4's kernel-vs-user-space cleaner.
func BenchmarkAblationCleaner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := figures.AblationCleaner(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(rep.TPSSync, "sync-cleaner-TPS")
			b.ReportMetric(rep.TPSIdle, "idle-cleaner-TPS")
			b.ReportMetric(rep.TPSBound, "no-stall-bound-TPS")
		}
	}
}

// BenchmarkAblationCommitBytes contrasts §4.3's whole-page commit flush with
// WAL delta logging.
func BenchmarkAblationCommitBytes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := figures.AblationCommitBytes(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			k, u := rep.Row("kernel-lfs", 1, 1), rep.Row("user-lfs", 1, 1)
			b.ReportMetric(k.CommitBytes, "kernel-B/txn")
			b.ReportMetric(u.CommitBytes, "wal-B/txn")
			b.ReportMetric(k.Blocks, "kernel-blocks/txn")
			b.ReportMetric(u.Blocks, "wal-blocks/txn")
		}
	}
}
