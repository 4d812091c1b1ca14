package trace_test

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestNilTracerZeroAllocs pins the off-switch cost: with tracing disabled
// every instrumentation call — including ones that build args — must be
// allocation-free. The typed Arg constructors and the copy-into-arena record
// path keep variadic arg slices on the caller's stack; a regression here
// means untraced runs pay heap traffic for dead annotations.
func TestNilTracerZeroAllocs(t *testing.T) {
	var tr *trace.Tracer
	ctr := tr.Counter("c")
	hist := tr.Hist("h")
	allocs := testing.AllocsPerRun(100, func() {
		span := tr.Begin("io", "op")
		span.End(trace.AI("block", 7), trace.AS("lane", "fg"))
		tr.Complete("io", "op", 0, trace.AI("k", 2), trace.AU("u", 3))
		tr.Instant("txn", "mark", trace.AU("txn", 9))
		tr.Attribute(trace.AttrDisk, time.Millisecond)
		tr.AttributeIO(time.Millisecond, 0)
		ctr.Add(1)
		hist.Observe(time.Second)
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocated %.2f allocs/op, want 0", allocs)
	}
}

// TestLiveTracerSteadyStateAllocs pins the on-switch cost: once the arenas
// and the proc table are warm, recording spans, instants, counters,
// histograms, and attribution allocates nothing per operation beyond the
// amortized arena-block refills (one 4096-slot block per 4096 events).
func TestLiveTracerSteadyStateAllocs(t *testing.T) {
	clk := sim.NewClock()
	tr := trace.New(clk)
	ctr := tr.Counter("c")
	hist := tr.Hist("h")
	work := func() {
		span := tr.Begin("io", "op")
		span.End(trace.AI("block", 7), trace.AS("lane", "fg"))
		tr.Instant("txn", "mark", trace.AU("txn", 1))
		ctr.Add(1)
		hist.Observe(time.Millisecond)
		tr.Attribute(trace.AttrDisk, time.Microsecond)
		tr.AttributeIO(time.Microsecond, time.Microsecond)
	}
	for i := 0; i < 64; i++ {
		work() // warm the arenas, the proc table, and the override stack
	}
	allocs := testing.AllocsPerRun(200, work)
	// 2 events and 3 args per run; a fresh arena block (one make) every
	// ~2048 runs is the only permitted allocation.
	if allocs > 0.05 {
		t.Fatalf("live tracer allocated %.3f allocs/op in steady state, want ~0", allocs)
	}
}

// TestMetricsHandleIdentity: handles resolved before and after increments
// address the same underlying counter the by-name Max and the snapshot see.
func TestMetricsHandleIdentity(t *testing.T) {
	m := trace.NewMetrics()
	h := m.Counter("x")
	h.Add(3)
	if again := m.Counter("x"); again != h {
		t.Fatalf("Counter returned a different handle for the same name")
	}
	m.Counter("x").Add(4)
	m.Max("x", 5)
	if got := m.Snapshot().Counters["x"]; got != 7 {
		t.Fatalf("counter = %d, want 7", got)
	}
	m.Hist("lat").Observe(time.Millisecond)
	m.Hist("lat").Observe(time.Second)
	if got := m.Snapshot().Histograms["lat"].Count; got != 2 {
		t.Fatalf("hist count = %d, want 2", got)
	}
}
