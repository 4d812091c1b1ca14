package tpcb

import (
	"fmt"
	"testing"

	"repro/internal/lfs"
	"repro/internal/libtp"
	"repro/internal/lock"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// TestPartitionerExactlyOneShard pins the shard-partition arithmetic: for a
// grid of (count, shards) configurations — including non-divisible counts —
// every key maps to exactly one shard, the ranges tile [0, count) with no
// gap or overlap, and no two shards differ by more than one row.
func TestPartitionerExactlyOneShard(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 5, 7, 8} {
		for _, count := range []int64{int64(shards), 10, 13, 100, 101, 255} {
			if count < int64(shards) {
				continue
			}
			covered := int64(0)
			var prevHi int64
			minSz, maxSz := count, int64(0)
			for s := 0; s < shards; s++ {
				lo, hi := rangeOf(count, shards, s)
				if lo != prevHi {
					t.Fatalf("count=%d shards=%d: shard %d starts at %d, want %d (gap or overlap)", count, shards, s, lo, prevHi)
				}
				if hi <= lo {
					t.Fatalf("count=%d shards=%d: shard %d empty [%d,%d)", count, shards, s, lo, hi)
				}
				sz := hi - lo
				minSz, maxSz = min(minSz, sz), max(maxSz, sz)
				for id := lo; id < hi; id++ {
					if got := shardOf(count, shards, id); got != s {
						t.Fatalf("count=%d shards=%d: id %d in range of shard %d but shardOf says %d", count, shards, id, s, got)
					}
				}
				covered += sz
				prevHi = hi
			}
			if covered != count || prevHi != count {
				t.Fatalf("count=%d shards=%d: ranges cover %d rows ending at %d", count, shards, covered, prevHi)
			}
			if maxSz-minSz > 1 {
				t.Fatalf("count=%d shards=%d: shard sizes range %d..%d (remainder not spread)", count, shards, minSz, maxSz)
			}
		}
	}
}

// TestPartitionerValidation pins construction-time validation: shard counts
// below one and relations smaller than the shard count must fail loudly.
func TestPartitionerValidation(t *testing.T) {
	cfg := Config{Accounts: 100, Tellers: 10, Branches: 4, Seed: 1}
	if _, err := NewPartitioner(cfg, 0); err == nil {
		t.Fatal("0 shards accepted")
	}
	if _, err := NewPartitioner(cfg, 5); err == nil {
		t.Fatal("5 shards accepted with only 4 branches")
	}
	p, err := NewPartitioner(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards() != 4 {
		t.Fatalf("Shards() = %d", p.Shards())
	}
}

// shardedStormRig builds a 3-device partitioned user-lfs rig for the crash
// storm tests.
func shardedStormRig(t *testing.T, cfg Config) *Rig {
	t.Helper()
	rig, err := BuildRig(RigOptions{
		Kind:         "user-lfs",
		Config:       cfg,
		ExpectedTxns: 400,
		Devices:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rig
}

// TestShardedCrashStorm crashes the partitioned system at transaction
// boundaries: all in-memory state is dropped, every device is remounted,
// recovery resolves in-doubt two-phase-commit branches from the union of
// the shards' decision records, and the cross-shard TPC-B invariants must
// hold — every acknowledged transfer present on every shard it touched.
func TestShardedCrashStorm(t *testing.T) {
	cfg := Config{Accounts: 1500, Tellers: 15, Branches: 3, Seed: 77}
	rig := shardedStormRig(t, cfg)
	sys := rig.Sys.(*UserSystem)
	gen := NewGenerator(cfg)
	rng := sim.NewRNG(11)

	var committed []Txn
	for round := 0; round < 5; round++ {
		burst := 20 + rng.Intn(30)
		for i := 0; i < burst; i++ {
			tx := gen.Next()
			if err := sys.Run(tx); err != nil {
				t.Fatalf("round %d txn %d: %v", round, i, err)
			}
			committed = append(committed, tx)
		}
		if cross, _ := sys.CrossShardTxns(); round == 0 && cross == 0 {
			t.Fatal("no cross-shard transactions in the first burst; workload does not exercise 2PC")
		}
		// CRASH: remount every device, recover the array as a whole.
		fss := make([]vfs.FileSystem, len(rig.Devs))
		for d, dev := range rig.Devs {
			fs2, err := lfs.Mount(dev, rig.Clock, lfs.Options{CacheBlocks: 256})
			if err != nil {
				t.Fatalf("round %d shard %d remount: %v", round, d, err)
			}
			fss[d] = fs2
		}
		envs, _, err := RecoverSharded(fss, rig.Clock, libtp.Options{}, lock.NewManager())
		if err != nil {
			t.Fatalf("round %d recover: %v", round, err)
		}
		if err := VerifyShardedState(fss, rig.Part, committed, nil); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		sys = NewUserSystem(envs, rig.Part, rig.Clock, sim.SpriteCosts())
		if err := sys.Attach(); err != nil {
			t.Fatalf("round %d attach: %v", round, err)
		}
		rig.Shards = envs
	}
}

// TestShardedMid2PCCrash injects device-level crashes mid-run — including
// between a participant's prepare and the coordinator's decision, and
// between the decision and phase two — then recovers and checks atomicity:
// the interrupted cross-shard transfer is either everywhere or nowhere.
func TestShardedMid2PCCrash(t *testing.T) {
	cfg := Config{Accounts: 900, Tellers: 9, Branches: 3, Seed: 55}
	build := func() *Rig { return shardedStormRig(t, cfg) }

	// Learn the write-op timeline from a golden run.
	golden := build()
	loadOps := golden.Crash.WriteOps()
	gen := NewGenerator(cfg)
	const txns = 40
	for i := 0; i < txns; i++ {
		if err := golden.Sys.Run(gen.Next()); err != nil {
			t.Fatalf("golden txn %d: %v", i, err)
		}
	}
	if err := golden.Sys.Drain(); err != nil {
		t.Fatal(err)
	}
	totalOps := golden.Crash.WriteOps()
	if totalOps <= loadOps {
		t.Fatalf("golden run issued no writes (load %d, total %d)", loadOps, totalOps)
	}

	// Sweep a stride of crash points across the run; every log force of a
	// prepare, decision, or phase-two record is a write op, so the stride
	// lands inside two-phase commit windows many times over.
	span := totalOps - loadOps
	step := span / 23
	if step < 1 {
		step = 1
	}
	for n := loadOps + 1; n <= totalOps; n += step {
		rig := build()
		rig.Crash.CrashAfter(n, true, 0x2bc^uint64(n))
		g := NewGenerator(cfg)
		var committed []Txn
		var inFlight *Txn
		for i := 0; i < txns; i++ {
			tx := g.Next()
			if err := rig.Sys.Run(tx); err != nil {
				if !rig.Crash.Crashed() {
					t.Fatalf("point %d txn %d failed without crash: %v", n, i, err)
				}
				inFlight = &tx
				break
			}
			committed = append(committed, tx)
		}
		if !rig.Crash.Crashed() {
			if err := rig.Sys.Drain(); err != nil && !rig.Crash.Crashed() {
				t.Fatalf("point %d drain failed without crash: %v", n, err)
			}
		}
		if !rig.Crash.Crashed() {
			t.Fatalf("crash point %d never fired", n)
		}
		rig.Crash.ClearCrash()
		fss := make([]vfs.FileSystem, len(rig.Devs))
		for d, dev := range rig.Devs {
			fs2, err := lfs.Mount(dev, rig.Clock, lfs.Options{CacheBlocks: 256})
			if err != nil {
				t.Fatalf("point %d shard %d remount: %v", n, d, err)
			}
			fss[d] = fs2
		}
		if _, _, err := RecoverSharded(fss, rig.Clock, libtp.Options{}, lock.NewManager()); err != nil {
			t.Fatalf("point %d recover: %v", n, err)
		}
		if err := VerifyShardedState(fss, rig.Part, committed, inFlight); err != nil {
			t.Fatalf("point %d (committed %d): %v", n, len(committed), err)
		}
	}
}

// TestShardedDeterminism pins two-run byte-equality on a multi-device
// partitioned rig at MPL 8: identical options must yield identical results
// and identical per-device disk statistics.
func TestShardedDeterminism(t *testing.T) {
	cfg := Config{Accounts: 1200, Tellers: 12, Branches: 3, Seed: 42}
	run := func() (Result, []string) {
		rig, err := BuildRig(RigOptions{
			Kind:         "user-lfs",
			Config:       cfg,
			ExpectedTxns: 300,
			Devices:      3,
			GroupCommit:  4,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := rig.RunMPL(cfg, 150, 8)
		if err != nil {
			t.Fatal(err)
		}
		var stats []string
		for _, d := range rig.Devs {
			stats = append(stats, fmt.Sprintf("%+v", d.Stats()))
		}
		return res, stats
	}
	r1, s1 := run()
	r2, s2 := run()
	if r1 != r2 {
		t.Fatalf("results differ:\n%+v\n%+v", r1, r2)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("device %d stats differ:\n%s\n%s", i, s1[i], s2[i])
		}
	}
}
