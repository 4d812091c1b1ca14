package lock

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func obj(b int64) Object { return Object{File: 1, Block: b} }

// newSimManager returns a manager on a fresh simulated clock: a request that
// must wait suspends its scheduler proc, so "blocked" is a simulated interval
// the tests can read back, not a wall-clock guess.
func newSimManager() (*Manager, *sim.Clock) {
	clk := sim.NewClock()
	m := NewManager()
	m.SetClock(clk)
	return m, clk
}

// runProcs runs the bodies as virtual processes of one scheduler, spawned in
// argument order (so ties in virtual time dispatch in that order).
func runProcs(clk *sim.Clock, bodies ...func()) {
	s := sim.NewScheduler(clk)
	for i, body := range bodies {
		s.Spawn(fmt.Sprintf("proc-%d", i), body)
	}
	s.Run()
}

// after moves the calling proc d ahead and yields, so every proc spawned
// beside it runs until it blocks, finishes or passes that time.
func after(clk *sim.Clock, d time.Duration) {
	clk.Advance(d)
	clk.Yield()
}

// hold is how long a test's lock holder keeps its lock.
const hold = 5 * time.Millisecond

// blockedBehind has txn 1 hold obj(0) in mode held from time zero to hold
// while txn 2 asks for it in mode want at time zero. The waiter must be
// granted exactly when the holder releases, and the manager must have charged
// exactly that interval as blocked time.
func blockedBehind(t *testing.T, held, want Mode) Stats {
	t.Helper()
	m, clk := newSimManager()
	granted := time.Duration(-1)
	runProcs(clk,
		func() {
			if err := m.Lock(1, obj(0), held); err != nil {
				t.Error(err)
			}
			after(clk, hold)
			m.ReleaseAll(1)
		},
		func() {
			if err := m.Lock(2, obj(0), want); err != nil {
				t.Error(err)
			}
			granted = clk.Now()
		})
	if granted != hold {
		t.Fatalf("%v request behind a %v lock granted at %v, want the holder's release time %v", want, held, granted, hold)
	}
	st := m.Stats()
	if st.Waited != 1 || st.BlockedTime != hold {
		t.Fatalf("Waited = %d, BlockedTime = %v; want 1 wait of %v", st.Waited, st.BlockedTime, hold)
	}
	return st
}

func TestSharedReaders(t *testing.T) {
	m := NewManager()
	for txn := TxnID(1); txn <= 3; txn++ {
		if err := m.Lock(txn, obj(0), Read); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.HeldCount(1); got != 1 {
		t.Fatalf("HeldCount = %d", got)
	}
}

func TestReacquireHeldLockIsNoop(t *testing.T) {
	m := NewManager()
	if err := m.Lock(1, obj(0), Write); err != nil {
		t.Fatal(err)
	}
	// Write covers read; re-lock returns immediately.
	if err := m.Lock(1, obj(0), Read); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(1, obj(0), Write); err != nil {
		t.Fatal(err)
	}
	if got := m.HeldCount(1); got != 1 {
		t.Fatalf("HeldCount = %d, want 1", got)
	}
}

func TestWriterBlocksReader(t *testing.T) { blockedBehind(t, Write, Read) }

func TestReaderBlocksWriter(t *testing.T) { blockedBehind(t, Read, Write) }

func TestUpgradeSoleReader(t *testing.T) {
	m, clk := newSimManager()
	granted := time.Duration(-1)
	runProcs(clk,
		func() {
			if err := m.Lock(1, obj(0), Read); err != nil {
				t.Error(err)
			}
			// The sole reader upgrades without waiting.
			if err := m.Lock(1, obj(0), Write); err != nil {
				t.Error(err)
			}
			after(clk, hold)
			m.ReleaseAll(1)
		},
		func() {
			m.Lock(2, obj(0), Read)
			granted = clk.Now()
		})
	if st := m.Stats(); st.Upgrades != 1 || st.Waited != 1 {
		t.Fatalf("Upgrades = %d, Waited = %d; want 1 upgrade and the reader's 1 wait", st.Upgrades, st.Waited)
	}
	if granted != hold {
		t.Fatalf("reader granted at %v: the upgraded lock must be exclusive until its release at %v", granted, hold)
	}
}

// closeCycle runs two transactions into a waits-for cycle: at time zero txn 1
// locks a and txn 2 locks b, both in mode first; txn 1 asks to write b at 1 ms
// and blocks, txn 2 asks to write a at 2 ms and closes the cycle. The
// requester that closes the cycle is the victim, so on every run txn 2 is
// denied at 2 ms and txn 1 is granted the moment txn 2 gives up its locks.
func closeCycle(t *testing.T, first Mode, a, b Object) (m *Manager, victimErr error) {
	t.Helper()
	m, clk := newSimManager()
	var err1 error
	granted := time.Duration(-1)
	body := func(txn TxnID, mine, other Object) func() {
		return func() {
			if err := m.Lock(txn, mine, first); err != nil {
				t.Error(err)
			}
			after(clk, time.Duration(txn)*time.Millisecond)
			err := m.Lock(txn, other, Write)
			if txn == 1 {
				err1, granted = err, clk.Now()
				return
			}
			victimErr = err
			m.ReleaseAll(txn)
		}
	}
	runProcs(clk, body(1, a, b), body(2, b, a))
	if !errors.Is(victimErr, ErrDeadlock) || err1 != nil {
		t.Fatalf("txn 1: %v, txn 2: %v; want txn 2 the victim and txn 1 granted", err1, victimErr)
	}
	if st := m.Stats(); granted != 2*time.Millisecond || st.BlockedTime != time.Millisecond {
		t.Fatalf("txn 1 granted at %v after %v blocked, want 2ms after 1ms", granted, st.BlockedTime)
	}
	return m, victimErr
}

func TestDeadlockDetection(t *testing.T) {
	// Txn 1 holds obj 0 and waits for obj 1; txn 2 holds obj 1 and asks for
	// obj 0. Neither request is an upgrade: the cycle is an ordering one.
	m, _ := closeCycle(t, Write, obj(0), obj(1))
	if st := m.Stats(); st.Deadlocks != 1 || st.UpgradeDeadlocks != 0 {
		t.Fatalf("Deadlocks = %d (%d on upgrades), want 1 ordering deadlock", st.Deadlocks, st.UpgradeDeadlocks)
	}
}

func TestUpgradeDeadlock(t *testing.T) {
	// Two readers both trying to upgrade is the classic conversion
	// deadlock; the second requester must be told.
	m, err := closeCycle(t, Read, obj(0), obj(0))
	// The denied request is named by cause, in the stats and in the error.
	if st := m.Stats(); st.Deadlocks != 1 || st.UpgradeDeadlocks != 1 || st.Upgrades != 2 {
		t.Fatalf("stats %+v, want 1 deadlock, on an upgrade, of 2 upgrades", st)
	}
	if !strings.Contains(err.Error(), "upgrade") {
		t.Fatalf("error %q does not name the cause", err)
	}
}

// TestLockWaitOutsideProcessFails: a request that must wait outside a
// scheduler proc — set-up, drain, recovery, every example — has nobody to wait
// for: no other goroutine exists to release the lock. It is denied, naming the
// holder, where it used to park forever.
func TestLockWaitOutsideProcessFails(t *testing.T) {
	withClock, _ := newSimManager() // a clock, but no scheduler running
	for _, m := range []*Manager{NewManager(), withClock} {
		if err := m.Lock(1, obj(0), Write); err != nil {
			t.Fatal(err)
		}
		err := m.Lock(2, obj(0), Read)
		if !errors.Is(err, ErrDeadlock) || !strings.Contains(err.Error(), "no-process) held by [1]") {
			t.Fatalf("got %v, want ErrDeadlock naming the cause and the holder", err)
		}
		if st := m.Stats(); st.Deadlocks != 1 || st.Waited != 0 || m.HeldCount(2) != 0 {
			t.Fatalf("stats %+v, want the request denied without waiting", st)
		}
		// The holder is untouched and the object free again after its release.
		m.ReleaseAll(1)
		if err := m.Lock(2, obj(0), Write); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCycleCheckAllocationFree(t *testing.T) {
	// The deadlock check runs before every block; it must not allocate in
	// the steady state. Build the waits-for graph directly (only procs can
	// wait) and probe it under AllocsPerRun.
	m := NewManager()
	for id := TxnID(1); id < 8; id++ {
		m.waitsFor[id] = []TxnID{id + 1}
	}
	m.cycleLocked(1) // warm the reusable scratch
	allocs := testing.AllocsPerRun(100, func() {
		if m.cycleLocked(1) {
			t.Error("chain has no cycle")
		}
	})
	if allocs != 0 {
		t.Fatalf("cycleLocked allocates %v per acyclic probe, want 0", allocs)
	}
	m.waitsFor[8] = []TxnID{1} // close the cycle
	allocs = testing.AllocsPerRun(100, func() {
		if !m.cycleLocked(1) {
			t.Error("cycle not found")
		}
	})
	if allocs != 0 {
		t.Fatalf("cycleLocked allocates %v per cyclic probe, want 0", allocs)
	}
}

func TestReleaseAllReturnsWriteSet(t *testing.T) {
	m := NewManager()
	m.Lock(1, obj(0), Read)
	m.Lock(1, obj(1), Write)
	m.Lock(1, obj(2), Write)
	written := m.ReleaseAll(1)
	if len(written) != 2 {
		t.Fatalf("write set = %v, want 2 objects", written)
	}
	if m.HeldCount(1) != 0 {
		t.Fatal("all locks should be gone")
	}
}

func TestManyConcurrentTxns(t *testing.T) {
	// Stress: 16 procs locking 8 objects in ascending order (no deadlock
	// possible), yielding after every grant so they interleave and queue;
	// counters must add up, and a second run must count the same.
	run := func() Stats {
		m, clk := newSimManager()
		var bodies []func()
		for g := 0; g < 16; g++ {
			txn := TxnID(g + 1)
			bodies = append(bodies, func() {
				for round := 0; round < 20; round++ {
					for b := int64(0); b < 8; b++ {
						if err := m.Lock(txn, obj(b), Write); err != nil {
							t.Errorf("txn %d: %v", txn, err)
							return
						}
						after(clk, time.Microsecond)
					}
					m.ReleaseAll(txn)
				}
			})
		}
		runProcs(clk, bodies...)
		if n := len(m.table); n != 0 {
			t.Fatalf("%d objects leaked in the lock table", n)
		}
		return m.Stats()
	}
	st := run()
	if st.Deadlocks != 0 || st.Acquired != 16*20*8 || st.Waited == 0 {
		t.Fatalf("ordered locking must queue, not deadlock, and grant every request: %+v", st)
	}
	if again := run(); again != st {
		t.Fatalf("two runs differ:\n%+v\n%+v", st, again)
	}
}

func TestStatsWaits(t *testing.T) {
	if st := blockedBehind(t, Write, Write); st.Acquired != 2 || st.Deadlocks != 0 {
		t.Fatalf("stats %+v, want 2 grants and no deadlock", st)
	}
}

// TestTransactionLocksAllocationFree: once the table has held a transaction's
// worth of objects, locking five pages and releasing them — a TPC-B
// transaction's footprint — reuses the emptied heads, the emptied chain and
// the write-set buffer instead of allocating.
func TestTransactionLocksAllocationFree(t *testing.T) {
	m := NewManager()
	txn := TxnID(0)
	run := func() {
		txn++
		for b := int64(0); b < 5; b++ {
			if err := m.Lock(txn, Object{File: uint64(b), Block: int64(txn) & 1023}, Write); err != nil {
				t.Fatal(err)
			}
		}
		if w := m.ReleaseAll(txn); len(w) != 5 {
			t.Fatalf("write set %v, want 5 objects", w)
		}
	}
	for i := 0; i < 2048; i++ {
		run() // warm: every object the loop below locks has been in the table
	}
	if allocs := testing.AllocsPerRun(1000, run); allocs != 0 {
		t.Fatalf("five locks and ReleaseAll allocate %v objects, want 0", allocs)
	}
}

// TestHoldsReadsTheChain: Holds answers from the transaction's own chain,
// follows an upgrade, and forgets everything at ReleaseAll; the released
// write set is in (file, block) order whatever the grant order was.
func TestHoldsReadsTheChain(t *testing.T) {
	m := NewManager()
	for _, b := range []int64{5, 3} {
		if err := m.Lock(1, obj(b), Write); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Lock(1, obj(4), Read); err != nil {
		t.Fatal(err)
	}
	if mode, ok := m.Holds(1, obj(4)); !ok || mode != Read {
		t.Fatalf("Holds(obj 4) = %v, %v; want read", mode, ok)
	}
	if _, ok := m.Holds(2, obj(4)); ok {
		t.Fatal("another transaction's chain holds obj 4")
	}
	if err := m.Lock(1, obj(4), Write); err != nil {
		t.Fatal(err)
	}
	if mode, ok := m.Holds(1, obj(4)); !ok || mode != Write {
		t.Fatalf("after the upgrade Holds(obj 4) = %v, %v; want write", mode, ok)
	}
	if st := m.Stats(); st.Acquired != 3 || st.Upgrades != 1 || m.HeldCount(1) != 3 {
		t.Fatalf("stats %+v, %d held; want 3 acquired, 1 upgrade, 3 held", st, m.HeldCount(1))
	}
	if w := m.ReleaseAll(1); fmt.Sprint(w) != "[(1,3) (1,4) (1,5)]" {
		t.Fatalf("write set %v, want it in block order", w)
	}
	if _, ok := m.Holds(1, obj(3)); ok || m.HeldCount(1) != 0 || len(m.table) != 0 {
		t.Fatal("locks survive ReleaseAll")
	}
}
