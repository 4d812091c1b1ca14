package tpcb

import "testing"

// serialRigs are the three rigs the repository benchmark's `serial` workload
// builds (benchmark/pass.go): ScaledConfig(0.05), the disk sized for 10,000
// transactions, the paper's db/10 caches, the kernel's cleaner in idle windows.
func serialRigs() []RigOptions {
	var out []RigOptions
	for _, kind := range []string{"user-ffs", "user-lfs", "kernel-lfs"} {
		o := RigOptions{Kind: kind, Config: ScaledConfig(0.05), GroupCommit: 1, ExpectedTxns: 10000}
		if kind == "kernel-lfs" {
			o.CleanerMode = "idle"
		}
		out = append(out, o)
	}
	return out
}

// BenchmarkBuildRig is the benchmark's setup_s in isolation: format and bulk
// load of the three `serial` rigs, with bytes and objects allocated per build.
func BenchmarkBuildRig(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		for _, o := range serialRigs() {
			if _, err := BuildRig(o); err != nil {
				b.Fatal(err)
			}
		}
	}
}
