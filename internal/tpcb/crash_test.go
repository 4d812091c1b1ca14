package tpcb

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ffs"
	"repro/internal/lfs"
	"repro/internal/libtp"
	"repro/internal/lock"
	"repro/internal/sim"
)

// TestEmbeddedCrashStorm repeatedly crashes the embedded transaction system
// at transaction boundaries (remounting the file system from the device and
// rebuilding the transaction manager, with no other recovery step — the
// paper's "single recovery paradigm") and checks that every committed
// transaction survives and the TPC-B invariants hold.
func TestEmbeddedCrashStorm(t *testing.T) {
	cfg := Config{Accounts: 1500, Tellers: 15, Branches: 3, Seed: 99}
	rig, err := BuildRig(RigOptions{Kind: "kernel-lfs", Config: cfg, ExpectedTxns: 400})
	if err != nil {
		t.Fatal(err)
	}
	sys := rig.Sys.(*EmbeddedSystem)
	gen := NewGenerator(cfg)
	rng := sim.NewRNG(7)

	var committed []Txn
	for round := 0; round < 6; round++ {
		// Run a burst of transactions.
		burst := 20 + rng.Intn(40)
		for i := 0; i < burst; i++ {
			tx := gen.Next()
			if err := sys.Run(tx); err != nil {
				t.Fatalf("round %d txn %d: %v", round, i, err)
			}
			committed = append(committed, tx)
		}
		// CRASH: all in-memory state gone; remount from the device.
		fs2, err := lfs.Mount(rig.Dev, rig.Clock, lfs.Options{CacheBlocks: 256})
		if err != nil {
			t.Fatalf("round %d remount: %v", round, err)
		}
		rig.LFS = fs2
		m2 := core.New(fs2, rig.Clock, core.Options{})
		sys = NewEmbeddedSystem(m2, rig.Clock, sim.SpriteCosts())
		if err := sys.Attach(); err != nil {
			t.Fatalf("round %d attach: %v", round, err)
		}
		rig.FS = fs2

		// Verify every committed transaction's effects after this crash.
		verifyState(t, rig, committed)
	}
}

// verifyState checks the TPC-B invariants against the shadow history.
func verifyState(t *testing.T, rig *Rig, committed []Txn) {
	t.Helper()
	if err := VerifyState(rig.FS, committed, nil); err != nil {
		t.Fatal(err)
	}
}

// crashRun drives kernel-lfs with mpl concurrent clients until the workload
// completes or the device crashes, and reports what the clients saw: the
// transactions whose TxnCommit returned, and the batch in flight at the crash
// — the transactions that had pre-committed when the first client met the
// dead device and were never acknowledged. Only commit flushes and client 0's
// occasional checkpoint write, so that first client is the batch's flusher
// or, between flushes, the checkpointer.
func crashRun(t *testing.T, rig *Rig, cfg Config, txns, mpl int) (acked, batch []Txn) {
	t.Helper()
	sys := rig.Sys.(*EmbeddedSystem)
	workers := make([]*embeddedWorker, mpl)
	inflight := make([]*Txn, mpl)
	var suspects []*Txn // pre-committed at the crash, by client; nil before it
	sched := sim.NewScheduler(rig.Clock)
	for c := range workers {
		w, err := sys.NewWorker()
		if err != nil {
			t.Fatal(err)
		}
		workers[c] = w.(*embeddedWorker)
		gen := NewClientGenerator(cfg, c)
		quota := txns / mpl
		if c < txns%mpl {
			quota++
		}
		sched.Spawn(fmt.Sprintf("client-%d", c), func() {
			for i := 0; i < quota; i++ {
				rig.Clock.Yield()
				tx := gen.Next()
				inflight[c] = &tx
				err := workers[c].Run(tx)
				for errors.Is(err, lock.ErrDeadlock) {
					rig.Clock.Yield()
					err = workers[c].Run(tx)
				}
				if err == nil {
					// Also a committer woken by the last good flush that
					// only gets to run after the crash.
					acked = append(acked, tx)
					inflight[c] = nil
					if suspects != nil {
						suspects[c] = nil
					}
					// A file-system checkpoint now and then, beside running
					// and pre-committed transactions: it must log none of
					// their pages.
					if c == 0 && i%8 == 7 {
						err = rig.LFS.Sync()
					}
					if err == nil {
						continue
					}
				}
				if !rig.Crash.Crashed() {
					t.Errorf("client %d txn %d: %v", c, i, err)
				}
				if suspects == nil {
					suspects = make([]*Txn, mpl)
					for k, tx := range inflight {
						// A process is out of its transaction while Run
						// is still in progress only once it has
						// pre-committed.
						if tx != nil && !workers[k].proc.InTxn() {
							suspects[k] = tx
						}
					}
				}
				return
			}
		})
	}
	sched.Run()
	for _, tx := range suspects {
		if tx != nil {
			batch = append(batch, *tx)
		}
	}
	return acked, batch
}

// TestEmbeddedConcurrentCrash crashes the embedded system under concurrent
// clients at write operations sampled across the run — inside batch flushes
// (torn or not) and in the checkpoints between them — and checks what
// roll-forward recovers: every transaction whose TxnCommit had returned, plus
// all of the batch that was being flushed or none of it, and never a byte of
// a transaction that was still running. At MPL 8 with GroupCommit 8 a batch
// is every client at once; at MPL 12 with GroupCommit 4 batches flush while
// other clients are mid-transaction on the same pages.
func TestEmbeddedConcurrentCrash(t *testing.T) {
	// Five account leaves: a client waiting for the teller lock has usually
	// written an account page that a pre-committed transaction of the open
	// batch wrote too, so flushes log committed images, not live buffers.
	cfg := Config{Accounts: 120, Tellers: 15, Branches: 3, Seed: 99}
	const txns, points, tears = 240, 12, 5
	for _, shape := range []struct{ mpl, groupCommit int }{{8, 8}, {12, 4}} {
		mpl := shape.mpl
		build := func() *Rig {
			rig, err := BuildRig(RigOptions{Kind: "kernel-lfs", Config: cfg, ExpectedTxns: txns, GroupCommit: shape.groupCommit})
			if err != nil {
				t.Fatal(err)
			}
			return rig
		}
		golden := build()
		first := golden.Crash.WriteOps() + 1
		if acked, _ := crashRun(t, golden, cfg, txns, mpl); len(acked) != txns {
			t.Fatalf("MPL %d: golden run committed %d of %d", mpl, len(acked), txns)
		}
		last := golden.Crash.WriteOps()
		if st := golden.Core.Stats(); st.CommitFlush*3 > int64(txns) {
			t.Fatalf("MPL %d: golden run flushed %d times for %d transactions; the test is not crashing inside batches", mpl, st.CommitFlush, txns)
		}
		var whole, none int
		for i := 0; i < points; i++ {
			op := first + (last-first)*int64(i)/int64(points-1)
			// Tear 0 persists nothing of the crashing write; the others
			// persist a seeded prefix of it, now and then all of it (the
			// batch is then durable although no committer was told so).
			for tear := uint64(0); tear <= tears; tear++ {
				rig := build()
				rig.Crash.CrashAfter(op, tear > 0, uint64(op)*0x9e3779b97f4a7c15+tear)
				acked, batch := crashRun(t, rig, cfg, txns, mpl)
				if !rig.Crash.Crashed() {
					t.Fatalf("MPL %d op %d: the crash never fired", mpl, op)
				}
				rig.Crash.ClearCrash()
				fs2, err := lfs.Mount(rig.Dev, rig.Clock, lfs.Options{CacheBlocks: 256})
				if err != nil {
					t.Fatalf("MPL %d op %d tear %d: remount: %v", mpl, op, tear, err)
				}
				if rep, err := fs2.Fsck(); err != nil || !rep.OK() {
					t.Fatalf("MPL %d op %d tear %d: fsck: %v %+v", mpl, op, tear, err, rep)
				}
				errNone := VerifyState(fs2, acked, nil)
				if errNone == nil {
					none++
					continue
				}
				if len(batch) == 0 {
					t.Fatalf("MPL %d op %d tear %d: %d acknowledged, no batch in flight: %v", mpl, op, tear, len(acked), errNone)
				}
				if err := VerifyState(fs2, append(acked, batch...), nil); err != nil {
					t.Fatalf("MPL %d op %d tear %d: %d acknowledged, %d in the crashed batch; the recovered state is neither without the batch (%v) nor with all of it (%v)",
						mpl, op, tear, len(acked), len(batch), errNone, err)
				}
				whole++
			}
		}
		if whole == 0 || none == 0 {
			t.Fatalf("MPL %d: the crash points recovered %d whole batches and %d without: the sample does not cover both outcomes", mpl, whole, none)
		}
	}
}

// TestUserCrashStorm does the same for the user-level system: crash at
// transaction boundaries, remount, replay the WAL with RecoverPaths, and
// check the invariants.
func TestUserCrashStorm(t *testing.T) {
	cfg := Config{Accounts: 1500, Tellers: 15, Branches: 3, Seed: 21}
	rig, err := BuildRig(RigOptions{Kind: "user-lfs", Config: cfg, ExpectedTxns: 400})
	if err != nil {
		t.Fatal(err)
	}
	sys := rig.Sys.(*UserSystem)
	gen := NewGenerator(cfg)
	rng := sim.NewRNG(8)

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
		// CRASH + WAL recovery.
		fs2, err := lfs.Mount(rig.Dev, rig.Clock, lfs.Options{CacheBlocks: 256})
		if err != nil {
			t.Fatalf("round %d remount: %v", round, err)
		}
		env2, _, err := libtp.RecoverPaths(fs2, rig.Clock, libtp.Options{}, DBPaths())
		if err != nil {
			t.Fatalf("round %d recover: %v", round, err)
		}
		sys = NewUserSystem([]*libtp.Env{env2}, rig.Part, rig.Clock, sim.SpriteCosts())
		if err := sys.Attach(); err != nil {
			t.Fatalf("round %d attach: %v", round, err)
		}
		rig.FS = fs2
		rig.Env = env2

		verifyState(t, rig, committed)
	}
}

// TestFFSUserCrashStorm completes the crash-storm coverage for the third
// configuration: LIBTP on the read-optimized file system. Recovery here has
// one extra leg the LFS systems don't need — ffs.Fsck must rebuild the
// stale allocation bitmap from the inode table BEFORE the WAL replay, or
// replay-driven allocations could clobber durable data.
func TestFFSUserCrashStorm(t *testing.T) {
	cfg := Config{Accounts: 1500, Tellers: 15, Branches: 3, Seed: 33}
	rig, err := BuildRig(RigOptions{Kind: "user-ffs", Config: cfg, ExpectedTxns: 400})
	if err != nil {
		t.Fatal(err)
	}
	sys := rig.Sys.(*UserSystem)
	gen := NewGenerator(cfg)
	rng := sim.NewRNG(9)

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
		// CRASH: remount, fsck the bitmap, then WAL recovery.
		fs2, err := ffs.Mount(rig.Dev, rig.Clock, ffs.Options{CacheBlocks: 256})
		if err != nil {
			t.Fatalf("round %d remount: %v", round, err)
		}
		if _, err := fs2.Fsck(); err != nil {
			t.Fatalf("round %d fsck: %v", round, err)
		}
		env2, _, err := libtp.RecoverPaths(fs2, rig.Clock, libtp.Options{}, DBPaths())
		if err != nil {
			t.Fatalf("round %d recover: %v", round, err)
		}
		sys = NewUserSystem([]*libtp.Env{env2}, rig.Part, rig.Clock, sim.SpriteCosts())
		if err := sys.Attach(); err != nil {
			t.Fatalf("round %d attach: %v", round, err)
		}
		rig.FS = fs2
		rig.Env = env2

		verifyState(t, rig, committed)
	}
}
