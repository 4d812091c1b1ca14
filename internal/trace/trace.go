// Package trace is the deterministic, simulated-clock tracing and metrics
// subsystem of the reproduction. Every subsystem that advances simulated
// time (the disk, the lock manager, the log manager, the cleaner, the two
// transaction managers) can emit spans and instant events stamped with
// sim.Clock time into a Tracer, increment counters, and record latency
// histograms — and the Tracer rolls per-proc time attribution up into a
// "where did simulated time go" report.
//
// Three invariants govern the package (they are the same determinism
// invariants DESIGN.md §7 imposes on the simulation itself, enforced by
// simlint):
//
//   - a nil *Tracer costs nothing: every method nil-checks its receiver, so
//     instrumented hot paths pay one predictable branch when tracing is off;
//   - tracing never perturbs simulated time: the Tracer only ever reads the
//     clock (Now), never advances it, so a traced run and an untraced run of
//     the same seed take exactly the same number of simulated nanoseconds
//     (the MPL=1 exact-nanosecond conformance tests are the guard);
//   - output is byte-identical across same-seed runs: events append in
//     dispatch order (exactly one virtual process runs at a time), and every
//     exporter walks its state in a deterministic order.
//
// The recording hot path is allocation-free in the steady state: Arg is a
// tagged union (no interface boxing), events and their args are copied into
// chunked arenas whose blocks are reused-never-moved, and per-proc state
// lives in a slice indexed by proc slot. Like the simulation itself the
// Tracer relies on the cooperative scheduling model for safety: exactly one
// virtual process runs at a time and control moves by coroutine switch, so
// recording needs no locks. A Tracer must not be shared with goroutines
// outside the simulation while a run is in progress.
package trace

import (
	"strconv"
	"time"

	"repro/internal/sim"
)

// argKind discriminates the Arg union.
type argKind uint8

const (
	argInt  argKind = iota // signed integer
	argUint                // unsigned integer
	argStr                 // string
)

// Arg is one key/value annotation on an event. Args are an ordered slice,
// not a map, so event encoding needs no sorting to be deterministic. The
// value is a tagged union of the three types the instrumentation actually
// emits — integers, unsigned integers, and strings — so building an Arg
// never boxes through an interface and never allocates.
type Arg struct {
	Key  string
	str  string
	num  int64
	kind argKind
}

// AI returns an integer-valued Arg.
func AI(key string, v int64) Arg { return Arg{Key: key, num: v, kind: argInt} }

// AU returns an unsigned-integer-valued Arg.
func AU(key string, v uint64) Arg { return Arg{Key: key, num: int64(v), kind: argUint} }

// AS returns a string-valued Arg.
func AS(key string, v string) Arg { return Arg{Key: key, str: v, kind: argStr} }

// Event phases, following the Chrome trace-event format.
const (
	PhaseComplete = 'X' // a span with a start timestamp and a duration
	PhaseInstant  = 'i' // a point event
)

// Event is one recorded trace event. Args points into the Tracer's arg
// arena; it is immutable once recorded.
type Event struct {
	Name  string
	Cat   string
	Phase byte
	TS    time.Duration // simulated start time
	Dur   time.Duration // simulated duration (PhaseComplete only)
	Tid   int           // proc slot: proc id + 1, 0 = outside proc context
	Args  []Arg
}

// AttrCat classifies where a virtual process's simulated time went. The
// categories are mutually exclusive; whatever the instrumentation does not
// claim is reported as compute time.
type AttrCat int

const (
	// AttrDisk is disk service time a caller waited for (seek + rotation +
	// transfer): all of a foreground access, the unabsorbed residue of a
	// background one.
	AttrDisk AttrCat = iota
	// AttrQueue is time spent queued behind another client's disk request.
	AttrQueue
	// AttrLock is time suspended waiting for a page lock.
	AttrLock
	// AttrCommitWait is time a pre-committed transaction spent waiting for
	// the shared group-commit log force.
	AttrCommitWait
	// AttrCleaner is cleaner device time that stalled the workload: the
	// whole pass when cleaning runs synchronously on the critical path, or
	// the residue the idle windows could not absorb in background mode.
	AttrCleaner
	numAttrCats
)

func (c AttrCat) String() string {
	switch c {
	case AttrDisk:
		return "disk"
	case AttrQueue:
		return "queue"
	case AttrLock:
		return "lock"
	case AttrCommitWait:
		return "commit-wait"
	case AttrCleaner:
		return "cleaner-stall"
	}
	return "unknown"
}

// procAttr accumulates one proc slot's attributed time and, once the driver
// brackets the slot with ProcStart/ProcEnd, the measured interval the
// attribution report is computed against.
type procAttr struct {
	name     string
	started  bool
	ended    bool
	start    time.Duration
	end      time.Duration
	cat      [numAttrCats]time.Duration
	base     [numAttrCats]time.Duration // cat at ProcStart; excludes setup work
	override []AttrCat                  // attribution redirect stack (PushAttr)
}

// eventChunkSize is the arena block size for events and args. Blocks are
// allocated whole and never moved, so event Args subslices stay valid, and
// the steady-state cost of recording amortises to zero allocations.
const eventChunkSize = 4096

// Tracer records events, metrics, and per-proc time attribution against one
// simulated clock. All methods are safe on a nil receiver (no-ops). A Tracer
// has no lock: like the sim.Clock it stamps with, it is used from proc
// context or from the main goroutine while no scheduler runs (see the package
// comment).
type Tracer struct {
	clock   *sim.Clock
	metrics *Metrics
	procs   []*procAttr // indexed by proc slot (tid)

	full   [][]Event // sealed event arena blocks, in record order
	cur    []Event   // open event block, len < cap
	nEvent int       // total recorded events across full + cur
	args   []Arg     // open arg arena block; sealed blocks are only
	// reachable through the events that point into them
}

// New returns a Tracer stamping events with clock's simulated time.
func New(clock *sim.Clock) *Tracer {
	return &Tracer{clock: clock, metrics: NewMetrics()}
}

// Enabled reports whether the tracer is live; instrumentation that must do
// non-trivial work to build args can skip it when false.
func (t *Tracer) Enabled() bool { return t != nil }

// Metrics returns the tracer's metrics registry (nil for a nil tracer; the
// registry's methods are nil-safe too).
func (t *Tracer) Metrics() *Metrics {
	if t == nil {
		return nil
	}
	return t.metrics
}

// Counter returns a live handle on the named counter, or nil for a nil
// tracer; nil handles are safe to Add to. Hot paths resolve their handles
// once and skip the registry's per-call name lookup thereafter.
func (t *Tracer) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	return t.metrics.Counter(name)
}

// Hist returns a live handle on the named latency histogram, or nil for a
// nil tracer; nil handles are safe to Observe on.
func (t *Tracer) Hist(name string) *Hist {
	if t == nil {
		return nil
	}
	return t.metrics.Hist(name)
}

// tid returns the current proc slot: proc id + 1, or 0 outside proc context.
func (t *Tracer) tid() int {
	return t.clock.CurrentProcID() + 1
}

// proc returns the slot's attribution record, growing the slot table on
// first sight. Slots are dense small integers (proc id + 1), so a slice
// beats a map on every record.
func (t *Tracer) proc(tid int) *procAttr {
	for tid >= len(t.procs) {
		//simlint:alloc(slot table grows to the max proc slot once per run)
		t.procs = append(t.procs, nil)
	}
	p := t.procs[tid]
	if p == nil {
		//simlint:alloc(one attribution record per proc slot, first sight only)
		p = &procAttr{}
		t.procs[tid] = p
	}
	return p
}

// newEvent appends a zeroed event to the arena and returns it for filling.
func (t *Tracer) newEvent() *Event {
	if len(t.cur) == cap(t.cur) {
		if t.cur != nil {
			//simlint:alloc(arena seal: one sealed-block append per eventChunkSize events)
			t.full = append(t.full, t.cur)
		}
		//simlint:alloc(arena block allocation, amortized over eventChunkSize events)
		t.cur = make([]Event, 0, eventChunkSize)
	}
	//simlint:alloc(append within capacity: the block-full check above guarantees room)
	t.cur = append(t.cur, Event{})
	t.nEvent++
	return &t.cur[len(t.cur)-1]
}

// putArgs copies args into the arg arena and returns the stable copy. The
// caller's slice (typically a stack-allocated variadic) is not retained, so
// recording an event never forces the call site's args to escape.
func (t *Tracer) putArgs(args []Arg) []Arg {
	if len(args) == 0 {
		return nil
	}
	if len(t.args)+len(args) > cap(t.args) {
		n := eventChunkSize
		if len(args) > n {
			n = len(args)
		}
		//simlint:alloc(arg arena block allocation, amortized over eventChunkSize args)
		t.args = make([]Arg, 0, n)
	}
	start := len(t.args)
	//simlint:alloc(append within capacity: the block-full check above guarantees room)
	t.args = append(t.args, args...)
	return t.args[start:len(t.args):len(t.args)]
}

// Span is an in-progress operation opened by Begin. The zero Span (from a
// nil tracer) is valid and End on it is a no-op.
type Span struct {
	t    *Tracer
	cat  string
	name string
	ts   time.Duration
}

// Begin opens a span at the current simulated time. Close it with End; the
// event is recorded only then.
//
//simlint:noalloc
func (t *Tracer) Begin(cat, name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, cat: cat, name: name, ts: t.clock.Now()}
}

// End records the span as a complete event lasting from Begin until now.
//
//simlint:noalloc
func (s Span) End(args ...Arg) {
	if s.t == nil {
		return
	}
	s.t.Complete(s.cat, s.name, s.ts, args...)
}

// Complete records a complete event that started at start and ends now.
//
//simlint:noalloc
func (t *Tracer) Complete(cat, name string, start time.Duration, args ...Arg) {
	if t == nil {
		return
	}
	now := t.clock.Now()
	tid := t.tid()
	t.proc(tid)
	e := t.newEvent()
	e.Name, e.Cat, e.Phase = name, cat, PhaseComplete
	e.TS, e.Dur, e.Tid = start, now-start, tid
	e.Args = t.putArgs(args)
}

// Instant records a point event at the current simulated time.
//
//simlint:noalloc
func (t *Tracer) Instant(cat, name string, args ...Arg) {
	if t == nil {
		return
	}
	now := t.clock.Now()
	tid := t.tid()
	t.proc(tid)
	e := t.newEvent()
	e.Name, e.Cat, e.Phase = name, cat, PhaseInstant
	e.TS, e.Tid = now, tid
	e.Args = t.putArgs(args)
}

// Attribute charges d of the current proc's simulated time to category c.
//
//simlint:noalloc
func (t *Tracer) Attribute(c AttrCat, d time.Duration) {
	if t == nil || d <= 0 {
		return
	}
	t.proc(t.tid()).cat[c] += d
}

// CommitWait returns the function a group-commit rendezvous (sim.Batch) calls
// when a committer wakes, with the time it slept waiting for the batch's
// flush: a txn.commitWait span ending now, AttrCommitWait attribution and the
// txn.commitWait histogram. A nil tracer returns nil, which costs nothing.
func (t *Tracer) CommitWait() func(time.Duration) {
	if t == nil {
		return nil
	}
	hist := t.Hist("txn.commitWait")
	return func(d time.Duration) {
		if d <= 0 {
			return
		}
		t.Complete("txn", "txn.commitWait", t.clock.Now()-d)
		t.Attribute(AttrCommitWait, d)
		hist.Observe(d)
	}
}

// AttributeIO charges disk service and queue time a caller waited for, honouring any
// attribution override pushed for the current proc (the cleaner pushes
// AttrCleaner so its own I/O is not mistaken for workload disk time).
//
//simlint:noalloc
func (t *Tracer) AttributeIO(service, queue time.Duration) {
	if t == nil {
		return
	}
	p := t.proc(t.tid())
	if st := p.override; len(st) > 0 {
		p.cat[st[len(st)-1]] += service + queue
	} else {
		p.cat[AttrDisk] += service
		p.cat[AttrQueue] += queue
	}
}

// PushAttr redirects the current proc's subsequent AttributeIO charges to
// category c until the matching PopAttr. Used by the cleaner so the disk
// time of a synchronous cleaning pass is classified as cleaner stall.
func (t *Tracer) PushAttr(c AttrCat) {
	if t == nil {
		return
	}
	p := t.proc(t.tid())
	p.override = append(p.override, c)
}

// PopAttr undoes the innermost PushAttr of the current proc.
func (t *Tracer) PopAttr() {
	if t == nil {
		return
	}
	p := t.proc(t.tid())
	if len(p.override) > 0 {
		p.override = p.override[:len(p.override)-1]
	}
}

// ProcStart brackets the start of the measured interval for the current
// proc slot and names it in reports. Attribution accumulated before
// ProcStart (the load phase, say) is excluded from the slot's report row.
func (t *Tracer) ProcStart(name string) {
	if t == nil {
		return
	}
	now := t.clock.Now()
	p := t.proc(t.tid())
	p.name = name
	p.started = true
	p.ended = false
	p.start = now
	p.base = p.cat
}

// ProcEnd closes the measured interval opened by ProcStart.
func (t *Tracer) ProcEnd() {
	if t == nil {
		return
	}
	now := t.clock.Now()
	tid := t.tid()
	if tid < len(t.procs) {
		if p := t.procs[tid]; p != nil && p.started {
			p.end = now
			p.ended = true
		}
	}
}

// Events returns a copy of the recorded events, in append order. It runs
// after Scheduler.Run returns.
func (t *Tracer) Events() []Event {
	if t == nil || t.nEvent == 0 {
		return nil
	}
	out := make([]Event, 0, t.nEvent)
	for _, blk := range t.full {
		out = append(out, blk...)
	}
	return append(out, t.cur...)
}

// EventCount returns the number of recorded events. It runs after
// Scheduler.Run returns.
func (t *Tracer) EventCount() int {
	if t == nil {
		return 0
	}
	return t.nEvent
}

// procName resolves a slot's display name.
func (t *Tracer) procName(tid int) string {
	if tid < len(t.procs) {
		if p := t.procs[tid]; p != nil && p.name != "" {
			return p.name
		}
	}
	if tid == 0 {
		return "global"
	}
	return "proc-" + strconv.Itoa(tid-1)
}
