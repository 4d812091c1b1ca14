package trace_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestNilTracer: every method must be a no-op on a nil receiver — the
// instrumented hot paths rely on it costing nothing when tracing is off.
func TestNilTracer(t *testing.T) {
	var tr *trace.Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports Enabled")
	}
	span := tr.Begin("cat", "op")
	span.End(trace.AI("k", 1))
	tr.Complete("cat", "op", 0)
	tr.Instant("cat", "op")
	tr.Counter("c").Add(1)
	tr.Hist("h").Observe(time.Millisecond)
	tr.Attribute(trace.AttrDisk, time.Millisecond)
	tr.AttributeIO(time.Millisecond, time.Millisecond)
	tr.PushAttr(trace.AttrCleaner)
	tr.PopAttr()
	tr.ProcStart("p")
	tr.ProcEnd()
	if got := tr.Events(); got != nil {
		t.Fatalf("nil tracer returned events: %v", got)
	}
	if n := tr.EventCount(); n != 0 {
		t.Fatalf("nil tracer EventCount = %d", n)
	}
	if rows := tr.Attribution(); rows != nil {
		t.Fatalf("nil tracer returned attribution: %v", rows)
	}
	m := tr.Metrics()
	m.Max("c", 1)
	if snap := m.Snapshot(); len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil metrics snapshot not empty: %+v", snap)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome on nil tracer: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil-tracer chrome output is not JSON: %v\n%s", err, buf.String())
	}
}

// TestSpansAndChrome: spans and instants carry exact simulated timestamps and
// the Chrome export is valid JSON with microsecond ts/dur values.
func TestSpansAndChrome(t *testing.T) {
	clk := sim.NewClock()
	tr := trace.New(clk)

	clk.Advance(5 * time.Microsecond)
	span := tr.Begin("io", "disk.read")
	clk.Advance(3 * time.Microsecond)
	span.End(trace.AI("block", 7))
	tr.Instant("txn", "txn.begin", trace.AI("txn", 1))

	events := tr.Events()
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if e := events[0]; e.Name != "disk.read" || e.TS != 5*time.Microsecond || e.Dur != 3*time.Microsecond || e.Tid != 0 {
		t.Fatalf("span event wrong: %+v", e)
	}
	if e := events[1]; e.Phase != trace.PhaseInstant || e.TS != 8*time.Microsecond {
		t.Fatalf("instant event wrong: %+v", e)
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome output is not JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var read map[string]any
	for _, e := range doc.TraceEvents {
		if e["name"] == "disk.read" {
			read = e
		}
	}
	if read == nil {
		t.Fatalf("disk.read missing from chrome events: %v", doc.TraceEvents)
	}
	if ts := read["ts"].(float64); ts != 5.0 {
		t.Fatalf("ts = %v µs, want 5", ts)
	}
	if dur := read["dur"].(float64); dur != 3.0 {
		t.Fatalf("dur = %v µs, want 3", dur)
	}
	if args := read["args"].(map[string]any); args["block"].(float64) != 7 {
		t.Fatalf("args = %v", args)
	}
}

// TestTracerNeverAdvancesClock: recording events, metrics, and attribution
// must not move simulated time — the second package invariant.
func TestTracerNeverAdvancesClock(t *testing.T) {
	clk := sim.NewClock()
	tr := trace.New(clk)
	clk.Advance(time.Millisecond)
	before := clk.Now()
	tr.ProcStart("main")
	span := tr.Begin("io", "op")
	span.End()
	tr.Instant("txn", "mark")
	tr.Counter("c").Add(3)
	tr.Hist("h").Observe(time.Second)
	tr.AttributeIO(time.Second, time.Second)
	tr.ProcEnd()
	if now := clk.Now(); now != before {
		t.Fatalf("tracing advanced the clock: %v -> %v", before, now)
	}
}

// TestHistogramBuckets: observations land in the right fixed buckets and the
// snapshot carries exact sums and counts.
func TestHistogramBuckets(t *testing.T) {
	m := trace.NewMetrics()
	lat := m.Hist("lat")
	lat.Observe(1 * time.Microsecond)  // below the first bound (10µs)
	lat.Observe(10 * time.Microsecond) // on the first bound: bounds are exclusive, so bucket 1
	lat.Observe(42 * time.Millisecond) // mid-range
	lat.Observe(10 * time.Second)      // beyond the last bound: overflow bucket
	snap := m.Snapshot()
	h, ok := snap.Histograms["lat"]
	if !ok {
		t.Fatalf("histogram missing: %+v", snap)
	}
	if h.Count != 4 {
		t.Fatalf("count = %d, want 4", h.Count)
	}
	want := 1*time.Microsecond + 10*time.Microsecond + 42*time.Millisecond + 10*time.Second
	if h.Sum != want {
		t.Fatalf("sum = %v, want %v", h.Sum, want)
	}
	if len(h.Counts) != len(h.Bounds)+1 {
		t.Fatalf("len(counts) = %d, want len(bounds)+1 = %d", len(h.Counts), len(h.Bounds)+1)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 1 {
		t.Fatalf("first buckets = %d,%d, want 1,1 (1µs below, 10µs on the exclusive bound)", h.Counts[0], h.Counts[1])
	}
	if h.Counts[len(h.Counts)-1] != 1 {
		t.Fatalf("overflow bucket = %d, want 1 (10s)", h.Counts[len(h.Counts)-1])
	}
	var total int64
	for _, c := range h.Counts {
		total += c
	}
	if total != h.Count {
		t.Fatalf("bucket counts sum to %d, want %d", total, h.Count)
	}
}

// TestAttribution: the per-proc report charges each category correctly,
// honours the override stack, excludes pre-ProcStart attribution via the
// baseline, and reports the unclaimed remainder as compute.
func TestAttribution(t *testing.T) {
	clk := sim.NewClock()
	tr := trace.New(clk)

	// Load-phase attribution, before ProcStart: must be excluded.
	tr.AttributeIO(time.Hour, 0)

	tr.ProcStart("main")
	clk.Advance(20 * time.Microsecond)
	tr.Attribute(trace.AttrLock, 2*time.Microsecond)
	tr.AttributeIO(3*time.Microsecond, 1*time.Microsecond)
	tr.PushAttr(trace.AttrCleaner)
	tr.AttributeIO(4*time.Microsecond, 0)
	tr.PopAttr()
	tr.Attribute(trace.AttrCommitWait, 5*time.Microsecond)
	tr.ProcEnd()

	rows := tr.Attribution()
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1: %+v", len(rows), rows)
	}
	r := rows[0]
	if r.Proc != "main" || r.Tid != 0 {
		t.Fatalf("row identity wrong: %+v", r)
	}
	if r.Elapsed != 20*time.Microsecond {
		t.Fatalf("elapsed = %v, want 20µs", r.Elapsed)
	}
	if r.Lock != 2*time.Microsecond || r.Disk != 3*time.Microsecond ||
		r.Queue != 1*time.Microsecond || r.CleanerStall != 4*time.Microsecond ||
		r.CommitWait != 5*time.Microsecond {
		t.Fatalf("categories wrong: %+v", r)
	}
	if want := 20*time.Microsecond - 15*time.Microsecond; r.Compute != want {
		t.Fatalf("compute = %v, want %v", r.Compute, want)
	}
}

// TestAttributionComputeClamped: when claimed time exceeds the measured
// interval (over-attribution), compute clamps to zero instead of going
// negative.
func TestAttributionComputeClamped(t *testing.T) {
	clk := sim.NewClock()
	tr := trace.New(clk)
	tr.ProcStart("main")
	clk.Advance(time.Microsecond)
	tr.Attribute(trace.AttrDisk, time.Second)
	tr.ProcEnd()
	rows := tr.Attribution()
	if len(rows) != 1 || rows[0].Compute != 0 {
		t.Fatalf("compute not clamped: %+v", rows)
	}
}
