package disk

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/frame"
	"repro/internal/sim"
)

func newTestDevice() (*Device, *sim.Clock) {
	clk := sim.NewClock()
	return New(sim.SmallModel(), clk), clk
}

func block(dev *Device, fill byte) []byte {
	b := make([]byte, dev.BlockSize())
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestReadUnwrittenBlockIsZero(t *testing.T) {
	dev, _ := newTestDevice()
	buf := block(dev, 0xff)
	if err := dev.Read(10, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("unwritten block should read as zeros")
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	dev, _ := newTestDevice()
	w := block(dev, 0xab)
	if err := dev.Write(42, w); err != nil {
		t.Fatal(err)
	}
	r := block(dev, 0)
	if err := dev.Read(42, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w, r) {
		t.Fatal("read back different data")
	}
}

func TestWriteCopiesData(t *testing.T) {
	dev, _ := newTestDevice()
	w := block(dev, 1)
	if err := dev.Write(5, w); err != nil {
		t.Fatal(err)
	}
	w[0] = 99 // mutate caller's buffer after the write
	r := block(dev, 0)
	if err := dev.Read(5, r); err != nil {
		t.Fatal(err)
	}
	if r[0] != 1 {
		t.Fatal("device must store a copy, not alias the caller's buffer")
	}
}

func TestOutOfRangeRejected(t *testing.T) {
	dev, _ := newTestDevice()
	buf := block(dev, 0)
	if err := dev.Read(-1, buf); err == nil {
		t.Fatal("negative block should fail")
	}
	if err := dev.Write(dev.NumBlocks(), buf); err == nil {
		t.Fatal("past-end block should fail")
	}
	if err := dev.WriteRun(dev.NumBlocks()-1, [][]byte{buf, buf}); err == nil {
		t.Fatal("run extending past end should fail")
	}
}

func TestBadBufferSizeRejected(t *testing.T) {
	dev, _ := newTestDevice()
	if err := dev.Read(0, make([]byte, 100)); err != ErrBadSize {
		t.Fatalf("got %v, want ErrBadSize", err)
	}
	if err := dev.Write(0, make([]byte, dev.BlockSize()+1)); err != ErrBadSize {
		t.Fatalf("got %v, want ErrBadSize", err)
	}
	// A sub-block write is a whole number of sectors, and alone in its run.
	for _, n := range []int{0, 100, SectorSize + 1} {
		if err := dev.Write(0, make([]byte, n)); err != ErrBadSize {
			t.Fatalf("%d-byte write: got %v, want ErrBadSize", n, err)
		}
	}
	if err := dev.WriteRun(0, [][]byte{make([]byte, SectorSize), block(dev, 1)}); err != ErrBadSize {
		t.Fatalf("sub-block buffer in a run: got %v, want ErrBadSize", err)
	}
}

// TestSectorWriteCost pins the cost of a k-sector write at B: followed by a
// write at B+1 (or a read there) it costs exactly what two whole-block
// accesses cost, because the arm waits out the sectors it did not transfer;
// followed by a seek elsewhere it saves exactly (8−k)·512 bytes of transfer.
// It stores only its sectors and still counts one block written.
func TestSectorWriteCost(t *testing.T) {
	const b, far = 1000, 5000
	bs := sim.SmallModel().BlockSize
	type access func(dev *Device) error
	writeAt := func(addr int64) access {
		return func(dev *Device) error { return dev.Write(addr, block(dev, 2)) }
	}
	readAt := func(addr int64) access {
		return func(dev *Device) error { return dev.Read(addr, block(dev, 0)) }
	}
	// cost runs a first write of n bytes at b, then next, and returns the
	// time they took and the device's counters.
	cost := func(n int, next access) (time.Duration, Stats) {
		dev, clk := newTestDevice()
		if err := dev.Write(b, bytes.Repeat([]byte{1}, n)); err != nil {
			t.Fatal(err)
		}
		if err := next(dev); err != nil {
			t.Fatal(err)
		}
		return clk.Now(), dev.Stats()
	}
	model := sim.SmallModel()
	for k := 1; k < bs/SectorSize; k++ {
		for _, next := range []struct {
			name string
			do   access
		}{{"write", writeAt(b + 1)}, {"read", readAt(b + 1)}} {
			whole, wst := cost(bs, next.do)
			part, pst := cost(k*SectorSize, next.do)
			if part != whole {
				t.Fatalf("%d sectors then a sequential %s: %v, two whole blocks %v", k, next.name, part, whole)
			}
			if pst != wst {
				t.Fatalf("%d sectors then a sequential %s: stats %+v, two whole blocks %+v", k, next.name, pst, wst)
			}
		}
		whole, _ := cost(bs, writeAt(far))
		part, st := cost(k*SectorSize, writeAt(far))
		if saved, want := whole-part, model.TransferTime((bs/SectorSize-k)*SectorSize); saved != want {
			t.Fatalf("%d sectors then a seek: saved %v, want %v", k, saved, want)
		}
		if st.Writes != 2 || st.BlocksWrit != 2 {
			t.Fatalf("%d sectors then a seek: stats %+v, want 2 writes of 2 blocks", k, st)
		}
	}

	// Only the written sectors change; the rest of the block keeps its bytes.
	dev, _ := newTestDevice()
	if err := dev.Write(b, block(dev, 0xaa)); err != nil {
		t.Fatal(err)
	}
	if err := dev.Write(b, bytes.Repeat([]byte{0xbb}, 3*SectorSize)); err != nil {
		t.Fatal(err)
	}
	got, _ := dev.Peek(b)
	want := append(bytes.Repeat([]byte{0xbb}, 3*SectorSize), bytes.Repeat([]byte{0xaa}, bs-3*SectorSize)...)
	if !bytes.Equal(got, want) {
		t.Fatal("a 3-sector write changed more, or less, than its sectors")
	}
}

func TestWriteRunRoundTrip(t *testing.T) {
	dev, _ := newTestDevice()
	bufs := [][]byte{block(dev, 1), block(dev, 2), block(dev, 3)}
	if err := dev.WriteRun(100, bufs); err != nil {
		t.Fatal(err)
	}
	got := [][]byte{block(dev, 0), block(dev, 0), block(dev, 0)}
	if err := dev.ReadRun(100, got); err != nil {
		t.Fatal(err)
	}
	for i := range bufs {
		if !bytes.Equal(bufs[i], got[i]) {
			t.Fatalf("block %d mismatch", i)
		}
	}
}

func TestTimeAccounting(t *testing.T) {
	dev, clk := newTestDevice()
	before := clk.Now()
	buf := block(dev, 7)
	if err := dev.Write(1000, buf); err != nil {
		t.Fatal(err)
	}
	if clk.Now() <= before {
		t.Fatal("a write must advance the simulated clock")
	}
	st := dev.Stats()
	if st.Writes != 1 || st.BlocksWrit != 1 || st.BusyTime <= 0 {
		t.Fatalf("stats = %+v, want one write with busy time", st)
	}
}

func TestSequentialCheaperThanRandom(t *testing.T) {
	devA, clkA := newTestDevice()
	buf := block(devA, 1)
	// Sequential: 64 consecutive blocks.
	for i := int64(0); i < 64; i++ {
		if err := devA.Write(1000+i, buf); err != nil {
			t.Fatal(err)
		}
	}
	seq := clkA.Now()

	devB, clkB := newTestDevice()
	for i := int64(0); i < 64; i++ {
		if err := devB.Write(i*97%devB.NumBlocks(), buf); err != nil {
			t.Fatal(err)
		}
	}
	rnd := clkB.Now()
	if rnd < 3*seq {
		t.Fatalf("random (%v) should be much slower than sequential (%v)", rnd, seq)
	}
}

func TestWriteRunCheaperThanBlockWrites(t *testing.T) {
	devA, clkA := newTestDevice()
	bufs := make([][]byte, 64)
	for i := range bufs {
		bufs[i] = block(devA, byte(i))
	}
	// Position both arms identically first.
	if err := devA.Write(0, bufs[0]); err != nil {
		t.Fatal(err)
	}
	t0 := clkA.Now()
	if err := devA.WriteRun(4000, bufs); err != nil {
		t.Fatal(err)
	}
	runTime := clkA.Now() - t0

	devB, clkB := newTestDevice()
	if err := devB.Write(0, bufs[0]); err != nil {
		t.Fatal(err)
	}
	t1 := clkB.Now()
	for i := range bufs {
		// Same blocks but interleave with a distant access so each write seeks.
		if err := devB.Write(4000+int64(i)*2, bufs[i]); err != nil {
			t.Fatal(err)
		}
		if err := devB.Read(100, bufs[0]); err != nil {
			t.Fatal(err)
		}
	}
	scattered := clkB.Now() - t1
	if scattered < 5*runTime {
		t.Fatalf("scattered writes (%v) should dwarf one run write (%v)", scattered, runTime)
	}
}

func TestArmTracking(t *testing.T) {
	dev, _ := newTestDevice()
	if dev.ArmPosition() != -1 {
		t.Fatal("fresh device arm position should be unknown")
	}
	buf := block(dev, 0)
	if err := dev.Write(10, buf); err != nil {
		t.Fatal(err)
	}
	if got := dev.ArmPosition(); got != 11 {
		t.Fatalf("arm = %d, want 11", got)
	}
	if err := dev.WriteRun(20, [][]byte{buf, buf, buf}); err != nil {
		t.Fatal(err)
	}
	if got := dev.ArmPosition(); got != 23 {
		t.Fatalf("arm = %d, want 23", got)
	}
}

func TestPeekDoesNotAdvanceClock(t *testing.T) {
	dev, clk := newTestDevice()
	buf := block(dev, 9)
	if err := dev.Write(3, buf); err != nil {
		t.Fatal(err)
	}
	before := clk.Now()
	got, err := dev.Peek(3)
	if err != nil {
		t.Fatal(err)
	}
	if clk.Now() != before {
		t.Fatal("Peek must not advance the clock")
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("Peek returned wrong data")
	}
}

func TestResetStats(t *testing.T) {
	dev, _ := newTestDevice()
	buf := block(dev, 0)
	_ = dev.Write(0, buf)
	dev.ResetStats()
	if st := dev.Stats(); st.Writes != 0 || st.BusyTime != 0 {
		t.Fatalf("stats after reset = %+v", st)
	}
}

// Property: any sequence of single-block writes followed by reads of the same
// addresses returns the last value written.
func TestWriteReadProperty(t *testing.T) {
	dev, _ := newTestDevice()
	last := map[int64]byte{}
	f := func(addrs []uint16, fills []byte) bool {
		n := len(addrs)
		if len(fills) < n {
			n = len(fills)
		}
		for i := 0; i < n; i++ {
			addr := int64(addrs[i]) % dev.NumBlocks()
			if err := dev.Write(addr, block(dev, fills[i])); err != nil {
				return false
			}
			last[addr] = fills[i]
		}
		for addr, fill := range last {
			buf := block(dev, 0)
			if err := dev.Read(addr, buf); err != nil {
				return false
			}
			if buf[0] != fill || buf[len(buf)-1] != fill {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueFlushEmpty(t *testing.T) {
	dev, clk := newTestDevice()
	q := NewQueue(dev)
	before := clk.Now()
	if err := q.FlushSorted(); err != nil {
		t.Fatal(err)
	}
	if clk.Now() != before {
		t.Fatal("flushing an empty queue should be free")
	}
}

func TestQueueWritesLand(t *testing.T) {
	dev, _ := newTestDevice()
	q := NewQueue(dev)
	q.EnqueueWrite(50, block(dev, 5))
	q.EnqueueWrite(10, block(dev, 1))
	q.EnqueueWrite(30, block(dev, 3))
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
	if err := q.FlushSorted(); err != nil {
		t.Fatal(err)
	}
	if q.Len() != 0 {
		t.Fatal("queue should be empty after flush")
	}
	for _, tc := range []struct {
		addr int64
		fill byte
	}{{50, 5}, {10, 1}, {30, 3}} {
		buf := block(dev, 0)
		if err := dev.Read(tc.addr, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != tc.fill {
			t.Fatalf("block %d = %d, want %d", tc.addr, buf[0], tc.fill)
		}
	}
}

func TestQueueEnqueueCopies(t *testing.T) {
	dev, _ := newTestDevice()
	q := NewQueue(dev)
	buf := block(dev, 8)
	q.EnqueueWrite(7, buf)
	buf[0] = 99
	if err := q.FlushSorted(); err != nil {
		t.Fatal(err)
	}
	got := block(dev, 0)
	if err := dev.Read(7, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 8 {
		t.Fatal("queue must copy enqueued data")
	}
}

func TestQueueSortedCheaperThanFIFO(t *testing.T) {
	// Write the same scattered set of blocks via the sorted queue and via
	// direct FIFO writes; the sorted queue should pay less positioning time.
	addrs := []int64{7000, 12, 5600, 900, 3000, 44, 8100, 2000, 6500, 150}

	devA, clkA := newTestDevice()
	q := NewQueue(devA)
	for _, a := range addrs {
		q.EnqueueWrite(a, block(devA, 1))
	}
	if err := q.FlushSorted(); err != nil {
		t.Fatal(err)
	}
	sorted := clkA.Now()

	devB, clkB := newTestDevice()
	for _, a := range addrs {
		if err := devB.Write(a, block(devB, 1)); err != nil {
			t.Fatal(err)
		}
	}
	fifo := clkB.Now()
	if sorted >= fifo {
		t.Fatalf("sorted flush (%v) should beat FIFO (%v)", sorted, fifo)
	}
}

func TestQueueCoalescesContiguousRuns(t *testing.T) {
	dev, _ := newTestDevice()
	q := NewQueue(dev)
	for i := int64(0); i < 8; i++ {
		q.EnqueueWrite(100+i, block(dev, byte(i)))
	}
	if err := q.FlushSorted(); err != nil {
		t.Fatal(err)
	}
	st := dev.Stats()
	if st.Writes != 1 {
		t.Fatalf("contiguous queue should coalesce to 1 write op, got %d", st.Writes)
	}
	if st.BlocksWrit != 8 {
		t.Fatalf("BlocksWrit = %d, want 8", st.BlocksWrit)
	}
}

func TestQueueReads(t *testing.T) {
	dev, _ := newTestDevice()
	if err := dev.Write(77, block(dev, 7)); err != nil {
		t.Fatal(err)
	}
	q := NewQueue(dev)
	buf := block(dev, 0)
	q.EnqueueRead(77, buf)
	if err := q.FlushSorted(); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 7 {
		t.Fatal("queued read did not fill buffer")
	}
}

func TestImageSaveLoadRoundTrip(t *testing.T) {
	dev, _ := newTestDevice()
	for i := int64(0); i < 20; i += 3 {
		if err := dev.Write(i*100, block(dev, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := dev.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	clk2 := sim.NewClock()
	dev2, err := LoadImage(sim.SmallModel(), clk2, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i += 3 {
		got := block(dev2, 0)
		if err := dev2.Read(i*100, got); err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) {
			t.Fatalf("block %d content wrong after reload", i*100)
		}
	}
	// Unwritten blocks stay zero.
	got := block(dev2, 0xff)
	dev2.Read(1, got)
	if got[0] != 0 {
		t.Fatal("unwritten block should be zero after reload")
	}
}

func TestImageRejectsGeometryMismatch(t *testing.T) {
	dev, _ := newTestDevice()
	var buf bytes.Buffer
	if err := dev.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	model := sim.RZ55Model() // different block count
	if _, err := LoadImage(model, sim.NewClock(), &buf); err == nil {
		t.Fatal("geometry mismatch should fail")
	}
}

func TestImageRejectsGarbage(t *testing.T) {
	if _, err := LoadImage(sim.SmallModel(), sim.NewClock(), bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("garbage should fail")
	}
}

func TestFaultInjection(t *testing.T) {
	dev, _ := newTestDevice()
	boom := errors.New("media error")
	dev.SetFault(func(op string, block int64) error {
		if op == "read" && block == 7 {
			return boom
		}
		return nil
	})
	buf := block(dev, 0)
	if err := dev.Write(7, block(dev, 1)); err != nil {
		t.Fatalf("write should pass: %v", err)
	}
	if err := dev.Read(7, buf); !errors.Is(err, boom) {
		t.Fatalf("got %v, want injected fault", err)
	}
	if err := dev.Read(8, buf); err != nil {
		t.Fatalf("other blocks unaffected: %v", err)
	}
	st := dev.Stats()
	dev.SetFault(nil)
	if err := dev.Read(7, buf); err != nil {
		t.Fatalf("fault cleared: %v", err)
	}
	// A faulted access must not be counted or charged.
	if dev.Stats().Reads != st.Reads+1 {
		t.Fatal("faulted reads must not count as completed reads")
	}
}

func TestBackgroundLaneOverlapsIdleWindows(t *testing.T) {
	dev, clk := newTestDevice()
	buf := block(dev, 1)

	// A foreground write, then a gap of pure CPU time: the gap becomes idle
	// credit background work may consume.
	if err := dev.Write(0, buf); err != nil {
		t.Fatal(err)
	}
	gap := 500 * time.Millisecond
	clk.Advance(gap)
	// The gap since the last request is banked at the next access.
	if got := dev.idleCredit + clk.Now() - dev.lastEnd; got != gap {
		t.Fatalf("idle credit = %v, want %v", got, gap)
	}

	// Background accesses drain the credit before stalling the clock.
	var bg BgTimes
	before := clk.Now()
	err := dev.Background(&bg, func() error {
		for i := int64(1); i <= 8; i++ {
			if err := dev.Write(i*100, buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	stalled := clk.Now() - before

	if bg.Busy != bg.Overlap+bg.Stall {
		t.Errorf("busy %v != overlap %v + stall %v", bg.Busy, bg.Overlap, bg.Stall)
	}
	if bg.Overlap == 0 {
		t.Error("no background time overlapped the idle window")
	}
	if bg.Stall != stalled {
		t.Errorf("clock advanced %v during background work, account says %v", stalled, bg.Stall)
	}
	if bg.Busy <= bg.Overlap && stalled != 0 {
		t.Errorf("stall %v reported with busy %v fully overlapped", stalled, bg.Busy)
	}
	if busy := dev.Stats().BusyTime; bg.Busy >= busy {
		t.Errorf("background busy %v, device busy %v: want the foreground write outside the account", bg.Busy, busy)
	}

	// Foreground accounting must be untouched by lane bookkeeping: a
	// foreground access after Background returns advances the clock fully.
	fgBefore := clk.Now()
	if err := dev.Write(5000, buf); err != nil {
		t.Fatal(err)
	}
	if clk.Now() == fgBefore {
		t.Error("foreground write after lane restore did not advance the clock")
	}
}

func TestResetIdleCreditForgetsBudget(t *testing.T) {
	dev, clk := newTestDevice()
	buf := block(dev, 2)
	if err := dev.Write(0, buf); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if clk.Now() == dev.lastEnd {
		t.Fatal("expected idle time after a gap")
	}
	dev.ResetIdleCredit()
	if dev.idleCredit != 0 || dev.lastEnd != clk.Now() {
		t.Fatalf("after reset: idle credit %v, last request end %v at %v; want 0 credit and no gap",
			dev.idleCredit, dev.lastEnd, clk.Now())
	}

	// With no credit, background work stalls the clock for its full cost.
	var bg BgTimes
	before := clk.Now()
	if err := dev.Background(&bg, func() error { return dev.Write(100, buf) }); err != nil {
		t.Fatal(err)
	}
	if bg.Overlap != 0 {
		t.Errorf("overlap %v after credit reset, want 0", bg.Overlap)
	}
	if advanced := clk.Now() - before; advanced != bg.Stall || advanced != bg.Busy {
		t.Errorf("clock advanced %v, stall %v of busy %v", advanced, bg.Stall, bg.Busy)
	}
}

// A background residue the idle budget did not absorb holds the arm: another
// proc's foreground request issued while it is in service queues behind it.
func TestBackgroundResidueHoldsTheArm(t *testing.T) {
	dev, clk := newTestDevice()
	buf := block(dev, 3)
	var residue, started time.Duration
	var bg BgTimes
	s := sim.NewScheduler(clk)
	s.Spawn("write-behind", func() {
		if err := dev.Background(&bg, func() error { return dev.Write(100, buf) }); err != nil {
			t.Error(err)
		}
		residue = clk.Now() // no idle credit at time zero: all of it stalls
		clk.Yield()
	})
	s.Spawn("reader", func() {
		started = clk.Now()
		if err := dev.Read(5000, buf); err != nil {
			t.Error(err)
		}
	})
	s.Run()
	queued := dev.Stats().QueueTime
	if residue == 0 || bg.Stall != residue {
		t.Fatalf("background write stalled %v, account says %v: want a residue", residue, bg.Stall)
	}
	if queued != residue-started {
		t.Fatalf("reader issued at %v queued %v, want the residue's remaining %v", started, queued, residue-started)
	}
}

// The rule holds the other way round too: a residue issued while a foreground
// request holds the arm waits for it, instead of sharing the arm with it.
func TestBackgroundResidueQueuesForTheArm(t *testing.T) {
	dev, clk := newTestDevice()
	buf := block(dev, 5)
	var served, started time.Duration
	var bg BgTimes
	s := sim.NewScheduler(clk)
	s.Spawn("reader", func() {
		if err := dev.Read(5000, buf); err != nil {
			t.Error(err)
		}
		served = clk.Now()
		clk.Yield()
	})
	s.Spawn("write-behind", func() {
		started = clk.Now()
		if err := dev.Background(&bg, func() error { return dev.Write(100, buf) }); err != nil {
			t.Error(err)
		}
	})
	s.Run()
	if q := dev.Stats().QueueTime; bg.Stall == 0 || q != served-started {
		t.Fatalf("background write issued at %v, stalled %v, queued %v: want a residue queued until the read's end at %v", started, bg.Stall, q, served)
	}
}

// A background access the idle budget absorbs entirely never held the arm as
// far as anyone else can tell: busyUntil stays where the last foreground
// request left it.
func TestAbsorbedBackgroundLeavesTheArmFree(t *testing.T) {
	dev, clk := newTestDevice()
	buf := block(dev, 4)
	if err := dev.Write(0, buf); err != nil {
		t.Fatal(err)
	}
	busy := dev.busyUntil
	clk.Advance(time.Second)
	var bg BgTimes
	if err := dev.Background(&bg, func() error { return dev.Write(100, buf) }); err != nil {
		t.Fatal(err)
	}
	if bg.Stall != 0 || bg.Overlap == 0 {
		t.Fatalf("overlap %v, stall %v: want the write absorbed", bg.Overlap, bg.Stall)
	}
	if dev.busyUntil != busy {
		t.Fatalf("busyUntil moved from %v to %v for an absorbed background write", busy, dev.busyUntil)
	}
}

// TestFaultInjectionMidRun is the regression test for the bug where WriteRun
// and ReadRun consulted the fault hook only for the run's first block: a
// per-block fault rule targeting a mid-run block must abort the whole run
// before any side effects.
func TestFaultInjectionMidRun(t *testing.T) {
	dev, _ := newTestDevice()
	boom := errors.New("media error")
	dev.SetFault(func(op string, block int64) error {
		if block == 12 {
			return boom
		}
		return nil
	})
	bufs := [][]byte{block(dev, 1), block(dev, 2), block(dev, 3)}
	// Run 10..12: block 12 is mid-run (not the first block).
	if err := dev.WriteRun(10, bufs); !errors.Is(err, boom) {
		t.Fatalf("WriteRun over a faulted mid-run block: got %v, want injected fault", err)
	}
	// No side effects: none of the run's blocks were stored.
	for addr := int64(10); addr <= 12; addr++ {
		got, err := dev.Peek(addr)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range got {
			if b != 0 {
				t.Fatalf("block %d partially written by an aborted run", addr)
			}
		}
	}
	if st := dev.Stats(); st.Writes != 0 || st.BlocksWrit != 0 {
		t.Fatalf("aborted run counted in stats: %+v", st)
	}
	rd := [][]byte{block(dev, 0), block(dev, 0), block(dev, 0)}
	if err := dev.ReadRun(10, rd); !errors.Is(err, boom) {
		t.Fatalf("ReadRun over a faulted mid-run block: got %v, want injected fault", err)
	}
	dev.SetFault(nil)
	if err := dev.WriteRun(10, bufs); err != nil {
		t.Fatalf("fault cleared: %v", err)
	}
}

func TestCrashAfterStopsTheDevice(t *testing.T) {
	dev, _ := newTestDevice()
	dev.CrashAfter(3, false, 1)
	if err := dev.Write(0, block(dev, 1)); err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteRun(1, [][]byte{block(dev, 2), block(dev, 3)}); err != nil {
		t.Fatal(err)
	}
	if got := dev.WriteOps(); got != 2 {
		t.Fatalf("WriteOps = %d, want 2", got)
	}
	// Third write op crashes; nothing from it is durable (non-torn mode).
	if err := dev.WriteRun(3, [][]byte{block(dev, 4), block(dev, 5)}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crashing write: got %v, want ErrCrashed", err)
	}
	if !dev.Crashed() {
		t.Fatal("device should report crashed")
	}
	buf := block(dev, 0)
	if err := dev.Read(0, buf); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash read: got %v, want ErrCrashed", err)
	}
	if err := dev.Write(9, block(dev, 9)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash write: got %v, want ErrCrashed", err)
	}
	// Reboot: earlier writes intact, crashing write absent.
	dev.ClearCrash()
	if err := dev.Read(0, buf); err != nil || buf[0] != 1 {
		t.Fatalf("block 0 after reboot: err=%v fill=%d", err, buf[0])
	}
	for addr, want := range map[int64]byte{1: 2, 2: 3, 3: 0, 4: 0} {
		got, err := dev.Peek(addr)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != want {
			t.Fatalf("block %d after reboot = %d, want %d", addr, got[0], want)
		}
	}
}

// TestCrashTornWriteIsDeterministicPrefix checks torn-mode semantics: the
// crashing run persists a prefix of its blocks chosen by the crash seed, and
// the same seed always yields the same prefix.
func TestCrashTornWriteIsDeterministicPrefix(t *testing.T) {
	run := func(seed uint64) []byte {
		dev, _ := newTestDevice()
		dev.CrashAfter(1, true, seed)
		bufs := make([][]byte, 8)
		for i := range bufs {
			bufs[i] = block(dev, byte(i+1))
		}
		if err := dev.WriteRun(0, bufs); !errors.Is(err, ErrCrashed) {
			t.Fatalf("torn crash: got %v, want ErrCrashed", err)
		}
		dev.ClearCrash()
		fills := make([]byte, 8)
		for i := range fills {
			got, err := dev.Peek(int64(i))
			if err != nil {
				t.Fatal(err)
			}
			fills[i] = got[0]
		}
		return fills
	}
	seen := map[int]bool{}
	for seed := uint64(0); seed < 32; seed++ {
		a, b := run(seed), run(seed)
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: torn prefix not deterministic: %v vs %v", seed, a, b)
		}
		// Survivors must be a prefix: once a block is zero, all later ones are.
		k := 0
		for k < len(a) && a[k] == byte(k+1) {
			k++
		}
		for i := k; i < len(a); i++ {
			if a[i] != 0 {
				t.Fatalf("seed %d: non-prefix survival %v", seed, a)
			}
		}
		seen[k] = true
	}
	// Across seeds the prefix length should actually vary (including
	// possibly 0 and the full run).
	if len(seen) < 3 {
		t.Fatalf("torn prefix lengths show no variety across seeds: %v", seen)
	}
}

// TestCrashTornSubBlockWrite: a torn sub-block write persists a prefix of its
// sectors chosen by the crash seed; the rest of the block keeps what it held.
func TestCrashTornSubBlockWrite(t *testing.T) {
	const sectors = 6
	seen := map[int]bool{}
	for seed := uint64(0); seed < 32; seed++ {
		dev, _ := newTestDevice()
		if err := dev.Write(7, block(dev, 0xaa)); err != nil {
			t.Fatal(err)
		}
		dev.CrashAfter(2, true, seed)
		if err := dev.Write(7, bytes.Repeat([]byte{0xbb}, sectors*SectorSize)); !errors.Is(err, ErrCrashed) {
			t.Fatalf("torn crash: got %v, want ErrCrashed", err)
		}
		dev.ClearCrash()
		got, _ := dev.Peek(7)
		k := 0
		for k < sectors && bytes.Equal(got[k*SectorSize:(k+1)*SectorSize], bytes.Repeat([]byte{0xbb}, SectorSize)) {
			k++
		}
		if !bytes.Equal(got[k*SectorSize:], bytes.Repeat([]byte{0xaa}, len(got)-k*SectorSize)) {
			t.Fatalf("seed %d: %d sectors written, then not the old bytes", seed, k)
		}
		seen[k] = true
	}
	if len(seen) < 3 {
		t.Fatalf("torn sector prefixes show no variety across seeds: %v", seen)
	}
}

// The queue's copies of enqueued writes live in recycled frames: a copy is
// valid until FlushSorted is done with it, poison afterwards, and a steady
// stream of flushes allocates no block.
func TestQueueRecyclesItsCopies(t *testing.T) {
	dev, _ := newTestDevice()
	q := NewQueue(dev)
	for round := 0; round < 20; round++ {
		for i := int64(0); i < 4; i++ {
			q.EnqueueWrite(10*i, block(dev, byte(round)))
		}
		held := q.reqs[0].Data
		if held[0] != byte(round) {
			t.Fatal("a queued request must carry a copy of the block")
		}
		if err := q.FlushSorted(); err != nil {
			t.Fatal(err)
		}
		if held[0] != frame.Poison || held[len(held)-1] != frame.Poison {
			t.Fatalf("a request's copy held past the flush must read poison, got %#x", held[0])
		}
	}
	if q.frames.Free() != 4 {
		t.Fatalf("20 flushes of 4 writes left %d frames with the queue, want 4", q.frames.Free())
	}
	got := block(dev, 0)
	if err := dev.Read(30, got); err != nil || got[0] != 19 {
		t.Fatalf("block 30 = %d, %v; want the last round's bytes", got[0], err)
	}

	// A failed flush gives every copy back too, serviced or dropped.
	q.EnqueueWrite(5, block(dev, 1))
	q.EnqueueWrite(500, block(dev, 2))
	injected := errors.New("injected")
	dev.SetFault(func(op string, b int64) error {
		if op == "write" && b == 5 {
			return injected
		}
		return nil
	})
	if err := q.FlushSorted(); !errors.Is(err, injected) {
		t.Fatalf("FlushSorted = %v, want the injected error", err)
	}
	if q.Len() != 0 || q.frames.Free() != 4 {
		t.Fatalf("after a failed flush: %d requests queued, %d frames free; want 0 and 4", q.Len(), q.frames.Free())
	}
}

// Background inside Background runs as part of the outer call: the outer
// account is charged and the inner one is not. Foreground inside Background
// is charged in full and queues for the arm, whatever idle credit the
// background lane holds, and the background lane resumes after it.
func TestNestedLanes(t *testing.T) {
	dev, clk := newTestDevice()
	buf := block(dev, 6)
	if err := dev.Write(0, buf); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second) // idle credit enough for every access below
	busy0 := dev.Stats().BusyTime
	// Another proc's request holds the arm this long past now.
	const held = 5 * time.Millisecond
	dev.busyUntil = clk.Now() + held

	var outer, inner BgTimes
	var fg time.Duration
	err := dev.Background(&outer, func() error {
		if err := dev.Background(&inner, func() error { return dev.Write(100, buf) }); err != nil {
			return err
		}
		if q := dev.Stats().QueueTime; q != 0 {
			t.Errorf("an absorbed background write queued %v", q)
		}
		before := clk.Now()
		if err := dev.Foreground(func() error { return dev.Write(200, buf) }); err != nil {
			return err
		}
		fg = clk.Now() - before
		if q := dev.Stats().QueueTime; q != held {
			t.Errorf("foreground write inside Background queued %v, want the %v the arm was held", q, held)
		}
		return dev.Write(300, buf)
	})
	if err != nil {
		t.Fatal(err)
	}
	if inner != (BgTimes{}) {
		t.Errorf("nested Background charged its own account %+v, want the outer one only", inner)
	}
	if outer.Stall != 0 || outer.Overlap != outer.Busy {
		t.Errorf("outer account %+v: want both background writes absorbed", outer)
	}
	busy := dev.Stats().BusyTime - busy0
	if fg-held <= 0 || outer.Busy+fg-held != busy {
		t.Errorf("foreground write advanced the clock %v (%v queued), background busy %v, device busy %v: want the foreground write charged in full and outside the account",
			fg, held, outer.Busy, busy)
	}
}
