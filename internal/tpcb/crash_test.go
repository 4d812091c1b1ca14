package tpcb

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/lock"
	"repro/internal/sim"
)

// TestEmbeddedCrashStorm repeatedly crashes the embedded transaction system
// at transaction boundaries (Rig.Recover remounts the file system from the
// device and rebuilds the transaction manager, with no transaction-recovery
// step — the paper's "single recovery paradigm") and checks that every
// committed transaction survives and the TPC-B invariants hold.
func TestEmbeddedCrashStorm(t *testing.T) {
	cfg := Config{Accounts: 1500, Tellers: 15, Branches: 3, Seed: 99}
	rig, err := BuildRig(RigOptions{Kind: "kernel-lfs", Config: cfg, ExpectedTxns: 400})
	if err != nil {
		t.Fatal(err)
	}
	gen := NewGenerator(cfg)
	rng := sim.NewRNG(7)

	var committed []Txn
	for round := 0; round < 6; round++ {
		// Run a burst of transactions.
		burst := 20 + rng.Intn(40)
		for i := 0; i < burst; i++ {
			tx := gen.Next()
			if err := rig.Sys.Run(tx); err != nil {
				t.Fatalf("round %d txn %d: %v", round, i, err)
			}
			committed = append(committed, tx)
		}
		// CRASH: all in-memory state gone; remount from the device.
		if _, _, err := rig.Recover(); err != nil {
			t.Fatalf("round %d recovery: %v", round, err)
		}
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

// crashRun drives the rig's system with mpl concurrent clients until the
// workload completes or the device crashes, and reports what the clients saw:
// the transactions whose commit returned, and the batch in flight at the
// crash, in pre-commit order — the transactions that had pre-committed when
// the first client met the dead device and were never acknowledged. Only
// commit forces and client 0's occasional file-system sync write, so that
// first client is the batch's flusher or, between flushes, the syncer.
func crashRun(t *testing.T, rig *Rig, cfg Config, txns, mpl int) (acked, batch []Txn) {
	t.Helper()
	workers := make([]Worker, mpl)
	inflight := make([]*Txn, mpl)
	var suspects []*Txn // pre-committed at the crash, in that order; nil before it
	sched := sim.NewScheduler(rig.Clock)
	for c := range workers {
		w, err := rig.Sys.(MultiClient).NewWorker()
		if err != nil {
			t.Fatal(err)
		}
		workers[c] = w
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
					suspects = slices.DeleteFunc(suspects, func(s *Txn) bool { return s == inflight[c] })
					inflight[c] = nil
					// A file-system sync now and then, beside running and
					// pre-committed transactions: it must make none of
					// their work durable.
					if c == 0 && i%8 == 7 {
						err = rig.FS.Sync()
					}
					if err == nil {
						continue
					}
				}
				if !rig.Dev.Crashed() {
					t.Errorf("client %d txn %d: %v", c, i, err)
				}
				if suspects == nil {
					suspects = []*Txn{}
					for _, k := range preCommitted(rig, workers) {
						if inflight[k] != nil {
							suspects = append(suspects, inflight[k])
						}
					}
				}
				return
			}
		})
	}
	sched.Run()
	for _, tx := range suspects {
		batch = append(batch, *tx)
	}
	return acked, batch
}

// preCommitted lists, in pre-commit order, the clients whose running
// transaction has pre-committed: its work is in the open batch, its locks are
// gone, and only the force is missing.
func preCommitted(rig *Rig, workers []Worker) (in []int) {
	if rig.Core != nil {
		for k, w := range workers {
			// A process is out of its transaction while Run is still in
			// progress only once it has pre-committed. (Flushes are atomic,
			// so the order within the batch does not matter.)
			if !w.(*worker).c.(kernelClient).proc.InTxn() {
				in = append(in, k)
			}
		}
		return in
	}
	// The user-level system keeps its transactions to itself; read the trace:
	// a client (thread id = client + 1) has pre-committed when a wal.commit
	// follows its last txn.begin.
	for _, ev := range rig.Tracer.Events() {
		switch k := ev.Tid - 1; ev.Name {
		case "txn.begin":
			in = slices.DeleteFunc(in, func(c int) bool { return c == k })
		case "wal.commit":
			in = append(in, k)
		}
	}
	return in
}

// concurrentCrashCfg has five account leaves: a client waiting for the teller
// lock has usually written an account page that a pre-committed transaction of
// the open batch wrote too, so the embedded system's flushes log committed
// images, not live buffers.
var concurrentCrashCfg = Config{Accounts: 120, Tellers: 15, Branches: 3, Seed: 99}

// crashShape is one configuration concurrentCrashSweep crashes: the database,
// the per-pool cache (0 = the rig's default), the clients and the batch size.
type crashShape struct {
	cfg              Config
	cacheBlocks      int
	mpl, groupCommit int
}

// concurrentCrashSweep crashes one system under concurrent clients at write
// operations sampled across the run — inside commit forces (torn or not) and
// in the syncs between them — and checks what recovery brings back: every
// transaction whose commit had returned, plus all of the batch that was being
// forced or none of it, and never a byte of a transaction that was still
// running. One exception to all-or-none: the write-ahead log on the
// update-in-place file system may keep the head of a batch whose force was
// torn (a log-structured file system writes a force as one atomic partial
// segment). It returns the uncrashed golden run's rig.
func concurrentCrashSweep(t *testing.T, kind string, shape crashShape) *Rig {
	const txns, points, tears = 240, 12, 5
	cfg, mpl := shape.cfg, shape.mpl
	build := func() *Rig {
		rig, err := BuildRig(RigOptions{Kind: kind, Config: cfg, ExpectedTxns: txns, GroupCommit: shape.groupCommit,
			CacheBlocks: shape.cacheBlocks,
			Trace:       kind != "kernel-lfs"}) // preCommitted reads the user-level batch off it
		if err != nil {
			t.Fatal(err)
		}
		return rig
	}
	golden := build()
	first := golden.Dev.WriteOps() + 1
	if acked, _ := crashRun(t, golden, cfg, txns, mpl); len(acked) != txns {
		t.Fatalf("golden run committed %d of %d", len(acked), txns)
	}
	last := golden.Dev.WriteOps()
	var forces int64
	if golden.Core != nil {
		forces = golden.Core.Stats().CommitFlush
	} else {
		forces = golden.WALStats().Forces
	}
	if mpl > 1 && forces*3 > int64(txns) {
		t.Fatalf("golden run forced %d times for %d transactions; the test is not crashing inside batches", forces, txns)
	}
	var whole, none int
	for i := 0; i < points; i++ {
		op := first + (last-first)*int64(i)/int64(points-1)
		// Tear 0 persists nothing of the crashing write; the others
		// persist a seeded prefix of it, now and then all of it (the
		// batch is then durable although no committer was told so).
		for tear := uint64(0); tear <= tears; tear++ {
			rig := build()
			rig.Dev.CrashAfter(op, tear > 0, uint64(op)*0x9e3779b97f4a7c15+tear)
			acked, batch := crashRun(t, rig, cfg, txns, mpl)
			if !rig.Dev.Crashed() {
				t.Fatalf("op %d: the crash never fired", op)
			}
			if _, _, err := rig.Recover(); err != nil {
				t.Fatalf("op %d tear %d: recovery: %v", op, tear, err)
			}
			// holds: the recovered state is exactly the acknowledged
			// transactions plus the first n of the batch.
			holds := func(n int) error {
				return VerifyState(rig.FS, append(acked[:len(acked):len(acked)], batch[:n]...), nil)
			}
			errNone := holds(0)
			if errNone == nil {
				none++
				continue
			}
			errWhole := holds(len(batch))
			if errWhole == nil {
				whole++
				continue
			}
			head := false
			for n := 1; rig.LFS == nil && n < len(batch) && !head; n++ {
				head = holds(n) == nil
			}
			if !head {
				t.Fatalf("op %d tear %d: %d acknowledged, %d in the crashed batch; the recovered state is neither without the batch (%v) nor with all of it (%v)",
					op, tear, len(acked), len(batch), errNone, errWhole)
			}
		}
	}
	if mpl > 1 && (whole == 0 || none == 0) {
		t.Fatalf("the crash points recovered %d whole batches and %d without: the sample does not cover both outcomes", whole, none)
	}
	return golden
}

// TestEmbeddedConcurrentCrash: roll-forward after a crash under concurrent
// clients. At MPL 8 with GroupCommit 8 a batch is every client at once; at
// MPL 12 with GroupCommit 4 batches flush while other clients are
// mid-transaction on the same pages.
func TestEmbeddedConcurrentCrash(t *testing.T) {
	for _, shape := range []crashShape{{concurrentCrashCfg, 0, 8, 8}, {concurrentCrashCfg, 0, 12, 4}} {
		concurrentCrashSweep(t, "kernel-lfs", shape)
	}
}

// TestUserConcurrentCrash is the same sweep over the write-ahead log on both
// file systems, plus MPL 1 with GroupCommit 8, where a batch is one
// transaction whatever GroupCommit says: the shape the log manager's private
// commit counter used to fail, acknowledging seven commits in eight ahead of
// their force. concurrentCrashCfg fits the user pool, so those shapes never
// write a dirty page back; the last shape's 1,500 accounts and 12-block pools
// evict dirty pages all through the run — pages whose records are durable
// (no force) and pages carrying a running or pre-committed transaction's
// update (the write-back forces the log first) — and are crashed among them.
func TestUserConcurrentCrash(t *testing.T) {
	shapes := []crashShape{
		{concurrentCrashCfg, 0, 8, 8},
		{concurrentCrashCfg, 0, 12, 4},
		{concurrentCrashCfg, 0, 1, 8},
		{Config{Accounts: 1500, Tellers: 15, Branches: 3, Seed: 99}, 12, 8, 8},
	}
	for _, kind := range []string{"user-lfs", "user-ffs"} {
		for _, shape := range shapes {
			name := fmt.Sprintf("%s/mpl%d-gc%d", kind, shape.mpl, shape.groupCommit)
			if shape.cacheBlocks > 0 {
				name += fmt.Sprintf("-pool%d", shape.cacheBlocks)
			}
			t.Run(name, func(t *testing.T) {
				golden := concurrentCrashSweep(t, kind, shape)
				if shape.cacheBlocks == 0 {
					return
				}
				st := golden.Env.Stats()
				t.Logf("golden run: %d page write-backs forced the log, %d found it durable", st.WriteBackForces, st.WriteBackSkips)
				if st.WriteBackForces == 0 || st.WriteBackSkips == 0 {
					t.Fatalf("golden run: %d write-backs forced the log and %d did not; the shape must crash among both",
						st.WriteBackForces, st.WriteBackSkips)
				}
			})
		}
	}
}

// userCrashStorm does what TestEmbeddedCrashStorm does for a user-level
// system: crash at transaction boundaries, reboot (remount, fsck, replay the
// WAL) and check the invariants — with a force per commit and with
// GroupCommit 8, which for a lone client must change nothing: every
// transaction Run returned for is durable.
func userCrashStorm(t *testing.T, kind string, seed, rngSeed uint64) {
	for _, groupCommit := range []int{1, 8} {
		t.Run(fmt.Sprintf("gc%d", groupCommit), func(t *testing.T) {
			cfg := Config{Accounts: 1500, Tellers: 15, Branches: 3, Seed: seed}
			rig, err := BuildRig(RigOptions{Kind: kind, Config: cfg, ExpectedTxns: 400, GroupCommit: groupCommit})
			if err != nil {
				t.Fatal(err)
			}
			gen := NewGenerator(cfg)
			rng := sim.NewRNG(rngSeed)

			var committed []Txn
			for round := 0; round < 5; round++ {
				burst := 20 + rng.Intn(30)
				for i := 0; i < burst; i++ {
					tx := gen.Next()
					if err := rig.Sys.Run(tx); err != nil {
						t.Fatalf("round %d txn %d: %v", round, i, err)
					}
					committed = append(committed, tx)
				}
				// CRASH: all in-memory state gone.
				if _, _, err := rig.Recover(); err != nil {
					t.Fatalf("round %d recovery: %v", round, err)
				}
				verifyState(t, rig, committed)
			}
		})
	}
}

func TestUserCrashStorm(t *testing.T) { userCrashStorm(t, "user-lfs", 21, 8) }

// TestFFSUserCrashStorm completes the crash-storm coverage for the third
// configuration: LIBTP on the read-optimized file system, whose reboot has the
// bitmap rebuild the LFS systems don't need.
func TestFFSUserCrashStorm(t *testing.T) { userCrashStorm(t, "user-ffs", 33, 9) }
