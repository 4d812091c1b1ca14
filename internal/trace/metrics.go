package trace

import (
	"time"

	"repro/internal/detsort"
)

// DefaultBounds are the upper bounds (exclusive) of the latency histogram
// buckets, log-spaced from 10µs to 5s. A final implicit overflow bucket
// catches everything above the last bound. Fixed bounds keep snapshots
// byte-comparable across runs and across PRs.
var DefaultBounds = []time.Duration{
	10 * time.Microsecond,
	30 * time.Microsecond,
	100 * time.Microsecond,
	300 * time.Microsecond,
	1 * time.Millisecond,
	3 * time.Millisecond,
	10 * time.Millisecond,
	30 * time.Millisecond,
	100 * time.Millisecond,
	300 * time.Millisecond,
	1 * time.Second,
	5 * time.Second,
}

// Counter is a live handle on one named counter. Instrumented hot paths
// resolve the handle once (Metrics.Counter or Tracer.Counter) and Add to it
// directly, paying no map lookup per increment. A nil handle (from a nil
// registry) is safe and free.
type Counter struct {
	v int64
}

// Add increments the counter by v.
func (c *Counter) Add(v int64) {
	if c != nil {
		c.v += v
	}
}

// Value returns the counter's current value.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Hist is a fixed-bucket latency histogram. Like Counter it doubles as a
// live handle: resolve once, Observe directly.
type Hist struct {
	Bounds []time.Duration
	Counts []int64 // len(Bounds)+1; last bucket is overflow
	Sum    time.Duration
	Count  int64
}

func newHist() *Hist {
	return &Hist{Bounds: DefaultBounds, Counts: make([]int64, len(DefaultBounds)+1)}
}

// Observe records d in the histogram. Safe on a nil handle.
func (h *Hist) Observe(d time.Duration) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.Bounds) && d >= h.Bounds[i] {
		i++
	}
	h.Counts[i]++
	h.Sum += d
	h.Count++
}

// Mean returns the mean observed duration (0 if empty).
func (h *Hist) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.Count)
}

// Metrics is a registry of named counters and latency histograms. All
// methods are nil-receiver safe. Like the Tracer it relies on the
// cooperative scheduling model instead of locks (see the package comment).
type Metrics struct {
	//simlint:tokenguarded
	counters map[string]*Counter
	//simlint:tokenguarded
	hists map[string]*Hist
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{counters: make(map[string]*Counter), hists: make(map[string]*Hist)}
}

// Counter returns the live handle for the named counter, creating it on
// first use (nil, which is safe to Add to, for a nil registry).
//
//simlint:tokensafe(handle registration runs at setup time, before Scheduler.Run hands the token to procs)
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	c := m.counters[name]
	if c == nil {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Hist returns the live handle for the named histogram, creating it on
// first use (nil, which is safe to Observe on, for a nil registry).
//
//simlint:tokensafe(handle registration runs at setup time, before Scheduler.Run hands the token to procs)
func (m *Metrics) Hist(name string) *Hist {
	if m == nil {
		return nil
	}
	h := m.hists[name]
	if h == nil {
		h = newHist()
		m.hists[name] = h
	}
	return h
}

// Add increments the named counter by v.
//
//simlint:tokensafe(recorder API is documented proc-context-only; at MPL=1 the main goroutine is the sole, degenerate token holder)
func (m *Metrics) Add(name string, v int64) {
	if m == nil {
		return
	}
	m.Counter(name).Add(v)
}

// Set overwrites the named counter with v (used when folding in final
// subsystem Stats at the end of a run).
//
//simlint:tokensafe(read-only collector documented to run after Scheduler.Run returns)
func (m *Metrics) Set(name string, v int64) {
	if m == nil {
		return
	}
	m.Counter(name).v = v
}

// Max raises the named counter to v if v is larger: a high-water mark.
func (m *Metrics) Max(name string, v int64) {
	if c := m.Counter(name); c != nil && v > c.v {
		c.v = v
	}
}

// Observe records d in the named histogram, creating it on first use.
//
//simlint:tokensafe(recorder API is documented proc-context-only; at MPL=1 the main goroutine is the sole, degenerate token holder)
func (m *Metrics) Observe(name string, d time.Duration) {
	if m == nil {
		return
	}
	m.Hist(name).Observe(d)
}

// CounterValue returns the named counter's current value.
//
//simlint:tokensafe(read-only collector documented to run after Scheduler.Run returns)
func (m *Metrics) CounterValue(name string) int64 {
	if m == nil {
		return 0
	}
	return m.counters[name].Value()
}

// HistSnapshot is the exported form of one histogram. Durations marshal as
// integer nanoseconds.
type HistSnapshot struct {
	Bounds []time.Duration `json:"bounds"`
	Counts []int64         `json:"counts"`
	Sum    time.Duration   `json:"sum"`
	Count  int64           `json:"count"`
	Mean   time.Duration   `json:"mean"`
}

// MetricsSnapshot is a point-in-time copy of the registry. encoding/json
// sorts map keys, so marshaling a snapshot is byte-stable.
type MetricsSnapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot copies the registry. Iteration goes through detsort so the copy
// itself is built in deterministic order.
//
//simlint:tokensafe(read-only collector documented to run after Scheduler.Run returns)
func (m *Metrics) Snapshot() MetricsSnapshot {
	snap := MetricsSnapshot{
		Counters:   make(map[string]int64),
		Histograms: make(map[string]HistSnapshot),
	}
	if m == nil {
		return snap
	}
	for _, k := range detsort.Keys(m.counters) {
		snap.Counters[k] = m.counters[k].v
	}
	for _, k := range detsort.Keys(m.hists) {
		h := m.hists[k]
		snap.Histograms[k] = HistSnapshot{
			Bounds: append([]time.Duration(nil), h.Bounds...),
			Counts: append([]int64(nil), h.Counts...),
			Sum:    h.Sum,
			Count:  h.Count,
			Mean:   h.Mean(),
		}
	}
	return snap
}
