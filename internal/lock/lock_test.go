package lock

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func obj(b int64) Object { return Object{File: 1, Block: b} }

// armWaitHook makes m signal ch each time a request parks, so tests can wait
// for "the other goroutine is blocked" without wall-clock sleeps. Must be
// called before any goroutine uses m. The send never blocks: the buffer
// absorbs the signals a test consumes, extra wake-ups are dropped.
func armWaitHook(m *Manager) chan struct{} {
	ch := make(chan struct{}, 16)
	m.waitHook = func() {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	return ch
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

func TestWriterBlocksReader(t *testing.T) {
	m := NewManager()
	if err := m.Lock(1, obj(0), Write); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan struct{})
	go func() {
		if err := m.Lock(2, obj(0), Read); err != nil {
			t.Error(err)
		}
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("reader should block behind writer")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1)
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("reader should acquire after release")
	}
}

func TestReaderBlocksWriter(t *testing.T) {
	m := NewManager()
	if err := m.Lock(1, obj(0), Read); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan struct{})
	go func() {
		if err := m.Lock(2, obj(0), Write); err != nil {
			t.Error(err)
		}
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("writer should block behind reader")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1)
	<-acquired
}

func TestUpgradeSoleReader(t *testing.T) {
	m := NewManager()
	if err := m.Lock(1, obj(0), Read); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(1, obj(0), Write); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Upgrades != 1 {
		t.Fatalf("Upgrades = %d", m.Stats().Upgrades)
	}
	// The upgraded lock excludes other readers.
	done := make(chan struct{})
	go func() {
		m.Lock(2, obj(0), Read)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("upgraded lock must be exclusive")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1)
	<-done
}

func TestDeadlockDetection(t *testing.T) {
	m := NewManager()
	blocked := armWaitHook(m)
	if err := m.Lock(1, obj(0), Write); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, obj(1), Write); err != nil {
		t.Fatal(err)
	}
	// Txn 1 waits for obj 1 (held by 2).
	errCh := make(chan error, 1)
	go func() { errCh <- m.Lock(1, obj(1), Write) }()
	<-blocked
	// Txn 2 requesting obj 0 closes the cycle: one of the two must get
	// ErrDeadlock.
	err2 := m.Lock(2, obj(0), Write)
	if err2 != nil {
		if !errors.Is(err2, ErrDeadlock) {
			t.Fatalf("got %v, want ErrDeadlock", err2)
		}
		m.ReleaseAll(2)
		if err := <-errCh; err != nil {
			t.Fatalf("txn1 should proceed after victim aborts: %v", err)
		}
	} else {
		// Then txn 1 must have been the victim.
		if err := <-errCh; !errors.Is(err, ErrDeadlock) {
			t.Fatalf("neither transaction saw the deadlock: %v", err)
		}
	}
	// Neither request was an upgrade: the cycle is an ordering one.
	if st := m.Stats(); st.Deadlocks != 1 || st.UpgradeDeadlocks != 0 {
		t.Fatalf("Deadlocks = %d (%d on upgrades), want 1 ordering deadlock", st.Deadlocks, st.UpgradeDeadlocks)
	}
}

func TestUpgradeDeadlock(t *testing.T) {
	// Two readers both trying to upgrade is the classic conversion
	// deadlock; the second requester must be told.
	m := NewManager()
	blocked := armWaitHook(m)
	m.Lock(1, obj(0), Read)
	m.Lock(2, obj(0), Read)
	errCh := make(chan error, 1)
	go func() { errCh <- m.Lock(1, obj(0), Write) }()
	<-blocked
	err2 := m.Lock(2, obj(0), Write)
	if err2 == nil {
		if err1 := <-errCh; !errors.Is(err1, ErrDeadlock) {
			t.Fatalf("expected a deadlock somewhere, got nil and %v", err1)
		}
	} else {
		if !errors.Is(err2, ErrDeadlock) {
			t.Fatalf("got %v, want ErrDeadlock", err2)
		}
		m.ReleaseAll(2)
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	// The denied request is named by cause, in the stats and in the error.
	if st := m.Stats(); st.Deadlocks != 1 || st.UpgradeDeadlocks != 1 || st.Upgrades != 2 {
		t.Fatalf("stats %+v, want 1 deadlock, on an upgrade, of 2 upgrades", st)
	}
	if err2 != nil && !strings.Contains(err2.Error(), "upgrade") {
		t.Fatalf("error %q does not name the cause", err2)
	}
}

func TestCycleCheckAllocationFree(t *testing.T) {
	// The deadlock check runs before every block; it must not allocate in
	// the steady state. Build the waits-for graph directly (Lock would park
	// the goroutine) and probe it under AllocsPerRun.
	m := NewManager()
	m.mu.Lock()
	defer m.mu.Unlock()
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

func TestUnlockSingle(t *testing.T) {
	m := NewManager()
	m.Lock(1, obj(0), Write)
	m.Unlock(1, obj(0))
	// Another transaction can now take it without blocking.
	done := make(chan struct{})
	go func() {
		m.Lock(2, obj(0), Write)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("lock should be free after Unlock")
	}
}

func TestWriteLockedList(t *testing.T) {
	m := NewManager()
	m.Lock(7, obj(3), Write)
	m.Lock(7, obj(4), Read)
	wl := m.WriteLocked(7)
	if len(wl) != 1 || wl[0] != obj(3) {
		t.Fatalf("WriteLocked = %v", wl)
	}
}

func TestManyConcurrentTxns(t *testing.T) {
	// Stress: 16 goroutines locking 8 objects in ascending order (no
	// deadlock possible) and releasing; counters must add up.
	m := NewManager()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(txn TxnID) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for b := int64(0); b < 8; b++ {
					if err := m.Lock(txn, obj(b), Write); err != nil {
						t.Errorf("txn %d: %v", txn, err)
						return
					}
				}
				m.ReleaseAll(txn)
			}
		}(TxnID(g + 1))
	}
	wg.Wait()
	if m.Stats().Deadlocks != 0 {
		t.Fatalf("ordered locking must not deadlock: %+v", m.Stats())
	}
	// Table should be empty.
	if n := len(m.table); n != 0 {
		t.Fatalf("%d objects leaked in the lock table", n)
	}
}

func TestStatsWaits(t *testing.T) {
	m := NewManager()
	blocked := armWaitHook(m)
	m.Lock(1, obj(0), Write)
	done := make(chan struct{})
	go func() {
		m.Lock(2, obj(0), Write)
		close(done)
	}()
	<-blocked
	m.ReleaseAll(1)
	<-done
	st := m.Stats()
	if st.Waited != 1 {
		t.Fatalf("Waited = %d, want 1", st.Waited)
	}
}
