// Package lock implements the two-phase, page-granularity lock manager both
// transaction systems share: single writer / multiple readers, lock chains
// maintained per object and per transaction (so commit and abort can
// traverse a transaction's locks rapidly, §4.1 of the paper), blocking
// waiters, lock upgrades, and deadlock detection by waits-for cycle search.
package lock

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Mode is a lock mode.
type Mode int

const (
	// Read is a shared lock.
	Read Mode = iota
	// Write is an exclusive lock.
	Write
)

func (m Mode) String() string {
	if m == Write {
		return "write"
	}
	return "read"
}

// Object identifies a lockable object: file and block number, as in the
// paper's lock table ("currently locked objects which are identified by file
// and block number").
type Object struct {
	File  uint64
	Block int64
}

func (o Object) String() string { return fmt.Sprintf("(%d,%d)", o.File, o.Block) }

// compareObject orders objects by (file, block) for deterministic iteration
// over object-keyed maps: victim selection, release order, and the write
// sets handed to abort processing must not depend on Go's randomized map
// order, or identically seeded runs diverge.
func compareObject(a, b Object) int {
	if c := cmp.Compare(a.File, b.File); c != 0 {
		return c
	}
	return cmp.Compare(a.Block, b.Block)
}

// TxnID identifies a lock owner.
type TxnID uint64

// Errors.
var (
	// ErrDeadlock is returned to the transaction chosen as the victim of a
	// waits-for cycle; the caller should abort.
	ErrDeadlock = errors.New("lock: deadlock detected")
)

// Stats counts lock-manager activity.
type Stats struct {
	Requests  int64 `json:"requests"`  // Lock calls: granted, covered by a held lock, or denied
	Acquired  int64 `json:"acquired"`  // granted requests (excluding re-grants of held locks)
	Waited    int64 `json:"waited"`    // requests that had to block
	Deadlocks int64 `json:"deadlocks"` // requests denied by deadlock detection
	Upgrades  int64 `json:"upgrades"`  // read→write upgrades
	// UpgradeDeadlocks is the part of Deadlocks whose denied request was a
	// read→write upgrade: a caller that read a page under a shared lock and
	// then wrote it, where it should have read for update. The remainder are
	// ordering cycles (transactions locking objects in opposite orders) and
	// requests that had to wait with no process to suspend.
	UpgradeDeadlocks int64 `json:"upgrade_deadlocks"`

	// BlockedTime is the cumulative simulated time transactions spent
	// suspended waiting for locks.
	BlockedTime time.Duration `json:"blocked"`
	// DeadlockAborts counts transactions actually aborted after losing
	// deadlock detection, as reported by the transaction layers through
	// NoteDeadlockAbort. It can be lower than Deadlocks when a caller
	// retries the same request without aborting.
	DeadlockAborts int64 `json:"deadlock_aborts"`
}

// holderEntry is one (transaction, mode) pair in a head's holder list.
type holderEntry struct {
	txn  TxnID
	mode Mode
}

// head is the per-object lock state. Holders live in a slice sorted by
// transaction id: holder counts are tiny (one writer or a few readers), so
// linear operations beat a map, and the maintained order makes every
// traversal deterministic without sorting keys on each access.
type head struct {
	holders []holderEntry
	waiters int
}

// get returns txn's held mode, if any.
//
//simlint:noalloc
func (h *head) get(txn TxnID) (Mode, bool) {
	for _, e := range h.holders {
		if e.txn == txn {
			return e.mode, true
		}
	}
	return 0, false
}

// set grants or upgrades txn's lock, keeping the slice sorted.
//
//simlint:noalloc
func (h *head) set(txn TxnID, mode Mode) {
	i := 0
	for i < len(h.holders) && h.holders[i].txn < txn {
		i++
	}
	if i < len(h.holders) && h.holders[i].txn == txn {
		h.holders[i].mode = mode
		return
	}
	//simlint:alloc(amortized holder-slice growth; holder counts are tiny)
	h.holders = append(h.holders, holderEntry{})
	copy(h.holders[i+1:], h.holders[i:])
	h.holders[i] = holderEntry{txn: txn, mode: mode}
}

// remove drops txn from the holder list if present.
//
//simlint:noalloc
func (h *head) remove(txn TxnID) {
	for i, e := range h.holders {
		if e.txn == txn {
			copy(h.holders[i:], h.holders[i+1:])
			h.holders = h.holders[:len(h.holders)-1]
			return
		}
	}
}

// held is one link of a transaction's lock chain: an object and the mode the
// transaction holds it in.
type held struct {
	obj  Object
	mode Mode
}

func compareHeld(a, b held) int { return compareObject(a.obj, b.obj) }

// Manager is a lock manager. It has no lock of its own: it must be used from
// proc context, or from the main goroutine while no scheduler runs.
type Manager struct {
	table map[Object]*head
	// byTxn is each transaction's lock chain (§4.1): every object it holds,
	// once, in grant order. A transaction holds a handful of locks, so the
	// chain is a slice, not a map.
	byTxn map[TxnID][]held
	// freeHeads and freeChains hold the heads and chains ReleaseAll emptied,
	// and written is the write set it returns: reused, so a transaction's
	// locks allocate nothing once the table has seen as many objects and
	// transactions at once as it will.
	freeHeads  []*head
	freeChains [][]held
	written    []Object
	// freeEdges holds the waits-for edge lists of granted requests, reused
	// by the next request that must wait.
	freeEdges [][]TxnID
	// waitsFor[t] is the list of transactions t is currently blocked on, in
	// ascending transaction order (the order conflicts produces). Sorted
	// slices rather than sets: edge counts are tiny, the deadlock DFS can
	// walk them directly without materializing sorted keys, and iteration is
	// deterministic by construction.
	waitsFor map[TxnID][]TxnID
	stats    Stats

	// dfsSeen and dfsStack are reusable scratch for cycleLocked, so the
	// deadlock check run before every block allocates nothing in the steady
	// state.
	dfsSeen  map[TxnID]bool
	dfsStack []TxnID

	// clk is the simulated clock a blocked request's process sleeps on: simQ
	// is the one place a lock request waits.
	clk      *sim.Clock
	simQ     sim.WaitQueue
	tracer   *trace.Tracer // nil = tracing off
	histWait *trace.Hist   // lock.wait latency handle (nil = tracing off)
}

// NewManager returns an empty lock manager.
func NewManager() *Manager {
	return &Manager{
		table:    make(map[Object]*head),
		byTxn:    make(map[TxnID][]held),
		waitsFor: make(map[TxnID][]TxnID),
		dfsSeen:  make(map[TxnID]bool),
	}
}

// SetClock attaches the simulated clock: a Lock call that must wait suspends
// the calling virtual process on it, accumulating Stats.BlockedTime in
// simulated time.
func (m *Manager) SetClock(clk *sim.Clock) { m.clk = clk }

// SetTracer attaches a tracer; lock waits then emit lock.wait spans with
// per-proc lock-blocked time attribution, and deadlock denials emit
// lock.deadlock instants. A nil tracer costs nothing.
func (m *Manager) SetTracer(tr *trace.Tracer) {
	m.tracer = tr
	m.histWait = tr.Hist("lock.wait")
}

// NoteDeadlockAbort records that a transaction was aborted because one of
// its lock requests returned ErrDeadlock. The transaction layers call this
// from their abort paths so the figure reports can distinguish denied
// requests from actual victim aborts.
func (m *Manager) NoteDeadlockAbort() { m.stats.DeadlockAborts++ }

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() Stats { return m.stats }

// HeldCount returns the number of locks txn holds.
func (m *Manager) HeldCount(txn TxnID) int { return len(m.byTxn[txn]) }

// conflicts appends to out the other holders blocking txn's request, in
// ascending transaction order. The order matters: it fixes the waits-for
// edges and therefore which transaction a deadlock search reaches first, so
// victim choice is stable across identically seeded runs. The holder slice is
// kept sorted, so iteration order is deterministic and grant checks (the
// common, conflict-free case) allocate nothing; a blocked request reuses an
// edge list an earlier one left (Manager.freeEdges).
//
//simlint:noalloc
func (h *head) conflicts(out []TxnID, txn TxnID, mode Mode) []TxnID {
	for _, e := range h.holders {
		if e.txn == txn {
			continue
		}
		if mode == Write || e.mode == Write {
			//simlint:alloc(conflict path only, and only until the recycled edge lists have grown to the most holders one request waits on)
			out = append(out, e.txn)
		}
	}
	return out
}

// Lock acquires obj in the given mode for txn, blocking until it is granted.
// Re-acquiring a held lock (same or weaker mode) returns immediately; a
// read→write upgrade waits for other readers to drain. If waiting would
// close a cycle in the waits-for graph, the request fails with ErrDeadlock
// and the caller is expected to abort the transaction. So does a request that
// must wait with no virtual process to suspend (set-up, drain, recovery: the
// main goroutine with no scheduler running, or no clock attached): nothing
// else runs that could release the lock, so the wait could never end.
//
//simlint:noalloc
func (m *Manager) Lock(txn TxnID, obj Object, mode Mode) error {
	m.stats.Requests++
	h := m.table[obj]
	if h == nil {
		h = m.newHead()
		m.table[obj] = h
	}
	upgrade := false
	if held, ok := h.get(txn); ok {
		if held == Write || mode == Read {
			return nil // already covered
		}
		m.stats.Upgrades++
		upgrade = true
	}

	waited := false
	var blocked time.Duration
	var blockers []TxnID
	if n := len(m.freeEdges); n > 0 {
		blockers = m.freeEdges[n-1]
		m.freeEdges = m.freeEdges[:n-1]
	}
	for {
		blockers = h.conflicts(blockers[:0], txn, mode)
		if len(blockers) == 0 {
			break
		}
		// Deadlock check before blocking. blockers is already in ascending
		// transaction order; it becomes txn's waits-for edge list as is.
		m.waitsFor[txn] = blockers
		noProcess := m.clk == nil || !m.clk.InProc()
		if noProcess || m.cycleLocked(txn) {
			delete(m.waitsFor, txn)
			m.stats.Deadlocks++
			cause := "order"
			if noProcess {
				cause = "no-process"
			} else if upgrade {
				m.stats.UpgradeDeadlocks++
				cause = "upgrade"
			}
			m.tracer.Instant("lock", "lock.deadlock",
				trace.AU("txn", uint64(txn)), trace.AU("file", obj.File),
				trace.AI("block", obj.Block), trace.AS("mode", mode.String()),
				trace.AS("cause", cause))
			//simlint:alloc(cold deadlock denial: the error carries the victim diagnosis)
			err := fmt.Errorf("%w: txn %d on %v (%s, %s) held by %v", ErrDeadlock, txn, obj, mode, cause, blockers)
			m.recycleEdges(blockers)
			return err
		}
		if !waited {
			m.stats.Waited++
			waited = true
		}
		h.waiters++
		d := m.simQ.Wait(m.clk)
		m.stats.BlockedTime += d
		blocked += d
		h.waiters--
	}
	if blocked > 0 && m.tracer.Enabled() {
		now := m.clk.Now()
		m.tracer.Complete("lock", "lock.wait", now-blocked,
			trace.AU("txn", uint64(txn)), trace.AU("file", obj.File),
			trace.AI("block", obj.Block), trace.AS("mode", mode.String()))
		m.tracer.Attribute(trace.AttrLock, blocked)
		m.histWait.Observe(blocked)
	}
	delete(m.waitsFor, txn)
	m.recycleEdges(blockers)
	h.set(txn, mode)
	chain := m.byTxn[txn]
	if upgrade {
		for i := range chain {
			if chain[i].obj == obj {
				chain[i].mode = mode
				break
			}
		}
		return nil
	}
	m.stats.Acquired++
	if chain == nil {
		chain = m.newChain()
	}
	//simlint:alloc(amortized chain growth: recycled chains keep their capacity)
	m.byTxn[txn] = append(chain, held{obj: obj, mode: mode})
	return nil
}

// recycleEdges keeps a waits-for edge list no request uses any more for the
// next one that must wait.
//
//simlint:noalloc
func (m *Manager) recycleEdges(edges []TxnID) {
	if cap(edges) > 0 {
		//simlint:alloc(amortized growth of the free list, up to the peak of requests waiting at once)
		m.freeEdges = append(m.freeEdges, edges[:0])
	}
}

// newHead returns an empty head, recycled when ReleaseAll has emptied one.
//
//simlint:noalloc
func (m *Manager) newHead() *head {
	if n := len(m.freeHeads); n > 0 {
		h := m.freeHeads[n-1]
		m.freeHeads = m.freeHeads[:n-1]
		return h
	}
	//simlint:alloc(one head per object locked at once, at the table's first peak only)
	return &head{}
}

// newChain returns an empty lock chain, recycled when ReleaseAll has emptied
// one (nil when none has been).
//
//simlint:noalloc
func (m *Manager) newChain() []held {
	if n := len(m.freeChains); n > 0 {
		c := m.freeChains[n-1]
		m.freeChains = m.freeChains[:n-1]
		return c
	}
	return nil
}

// Holds reports the mode txn holds obj in, read from txn's own lock chain
// without touching the shared table. The chain is searched newest grant
// first, so a page the transaction has just locked is found at once.
//
//simlint:noalloc
func (m *Manager) Holds(txn TxnID, obj Object) (Mode, bool) {
	chain := m.byTxn[txn]
	for i := len(chain) - 1; i >= 0; i-- {
		if chain[i].obj == obj {
			return chain[i].mode, true
		}
	}
	return 0, false
}

// cycleLocked reports whether txn is part of a waits-for cycle. Holder
// relations are implied by waitsFor edges; a cycle exists when following
// edges from txn reaches txn again. The edge lists are sorted slices, so the
// traversal is deterministic without per-node key sorting, and the iterative
// DFS reuses the manager's scratch structures: the check that guards every
// block is allocation-free in the steady state.
//
//simlint:noalloc
func (m *Manager) cycleLocked(start TxnID) bool {
	clear(m.dfsSeen)
	//simlint:alloc(reusable DFS scratch: grows to the deepest waits-for graph once)
	m.dfsStack = append(m.dfsStack[:0], start)
	for len(m.dfsStack) > 0 {
		t := m.dfsStack[len(m.dfsStack)-1]
		m.dfsStack = m.dfsStack[:len(m.dfsStack)-1]
		for _, next := range m.waitsFor[t] {
			if next == start {
				return true
			}
			if !m.dfsSeen[next] {
				m.dfsSeen[next] = true
				//simlint:alloc(reusable DFS scratch: grows to the deepest waits-for graph once)
				m.dfsStack = append(m.dfsStack, next)
			}
		}
	}
	return false
}

// ReleaseAll releases every lock txn holds (commit or abort: "the kernel
// locates the lock chain for the transaction ... traverses the lock chain,
// releasing locks", §4.3). The chain is sorted first, so locks release in
// ascending (file, block) order — a stable order across runs — and the
// returned write set inherits it. The write set is the manager's and valid
// until the next ReleaseAll.
//
//simlint:noalloc
func (m *Manager) ReleaseAll(txn TxnID) []Object {
	chain := m.byTxn[txn]
	slices.SortFunc(chain, compareHeld)
	m.written = m.written[:0]
	for _, e := range chain {
		if e.mode == Write {
			//simlint:alloc(amortized growth of the reused write-set buffer)
			m.written = append(m.written, e.obj)
		}
		if h := m.table[e.obj]; h != nil {
			h.remove(txn)
			if len(h.holders) == 0 && h.waiters == 0 {
				delete(m.table, e.obj)
				//simlint:alloc(amortized growth of the free list, up to the table's peak)
				m.freeHeads = append(m.freeHeads, h)
			}
		}
	}
	if chain != nil {
		delete(m.byTxn, txn)
		//simlint:alloc(amortized growth of the free list, up to the peak of open transactions)
		m.freeChains = append(m.freeChains, chain[:0])
	}
	delete(m.waitsFor, txn)
	m.simQ.Broadcast(m.clk) // with no clock attached nothing ever waited
	return m.written
}
