package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if got := c.Now(); got != 0 {
		t.Fatalf("new clock Now() = %v, want 0", got)
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	c.Advance(5 * time.Millisecond)
	c.Advance(7 * time.Millisecond)
	if got, want := c.Now(), 12*time.Millisecond; got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestClockAdvanceTo(t *testing.T) {
	c := NewClock()
	c.AdvanceTo(3 * time.Second)
	c.AdvanceTo(time.Second) // earlier than now: no-op
	if got, want := c.Now(), 3*time.Second; got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

// TestClockMonotonicProperty: each step moves the clock forward by exactly
// its duration, or panics on a negative one and leaves the clock where it was.
func TestClockMonotonicProperty(t *testing.T) {
	c := NewClock()
	panics := func(d time.Duration) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		c.Advance(d)
		return false
	}
	f := func(steps []int16) bool {
		for _, s := range steps {
			d, prev := time.Duration(s)*time.Microsecond, c.Now()
			if panics(d) != (d < 0) || c.Now() != prev+max(d, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRZ55ModelGeometry(t *testing.T) {
	m := RZ55Model()
	if got, want := m.SizeBytes(), int64(300*1024*1024); got != want {
		t.Fatalf("SizeBytes = %d, want %d", got, want)
	}
	// Average seek should be in the neighbourhood the RZ55 datasheet quotes.
	avg := m.AvgSeekTime()
	if avg < 10*time.Millisecond || avg > 30*time.Millisecond {
		t.Fatalf("AvgSeekTime = %v, want within [10ms, 30ms]", avg)
	}
}

func TestSeekTimeZeroDistance(t *testing.T) {
	m := RZ55Model()
	if got := m.SeekTime(100, 100); got != 0 {
		t.Fatalf("zero-distance seek = %v, want 0", got)
	}
}

func TestSeekTimeSymmetricAndMonotone(t *testing.T) {
	m := RZ55Model()
	if m.SeekTime(0, 50) != m.SeekTime(50, 0) {
		t.Fatal("seek time should be symmetric in direction")
	}
	if m.SeekTime(0, 10) >= m.SeekTime(0, 1000) {
		t.Fatal("longer seeks should cost more")
	}
}

func TestSequentialAccessIsCheap(t *testing.T) {
	m := RZ55Model()
	// A sequential continuation pays transfer time only.
	seq := m.AccessTime(1000, 1000, 1)
	if got, want := seq, m.TransferTime(m.BlockSize); got != want {
		t.Fatalf("sequential access = %v, want transfer-only %v", got, want)
	}
	// A random access pays seek + rotation + transfer and must be much slower.
	rnd := m.AccessTime(0, 50000, 1)
	if rnd < 5*seq {
		t.Fatalf("random access %v should be far slower than sequential %v", rnd, seq)
	}
}

func TestAccessTimeUnknownArmPosition(t *testing.T) {
	m := RZ55Model()
	got := m.AccessTime(-1, 0, 1)
	if got <= m.TransferTime(m.BlockSize) {
		t.Fatalf("access with unknown arm position should include seek+rotation, got %v", got)
	}
}

func TestTransferTimeScalesLinearly(t *testing.T) {
	m := RZ55Model()
	one := m.TransferTime(m.BlockSize)
	ten := m.TransferTime(10 * m.BlockSize)
	if ten < 9*one || ten > 11*one {
		t.Fatalf("transfer of 10 blocks = %v, want ≈ 10 × %v", ten, one)
	}
}

func TestTransferTimeDegenerate(t *testing.T) {
	m := RZ55Model()
	if m.TransferTime(0) != 0 || m.TransferTime(-5) != 0 {
		t.Fatal("degenerate transfer sizes should cost nothing")
	}
}

// TestSegmentWriteAmortization checks the core premise of the paper: writing
// many blocks in one segment-sized sequential unit approaches media bandwidth,
// while writing the same blocks randomly is dominated by positioning time.
func TestSegmentWriteAmortization(t *testing.T) {
	m := RZ55Model()
	const blocks = 128 // a 512 KB segment
	segTime := m.AccessTime(-1, 1000, blocks)
	var randomTime time.Duration
	pos := int64(-1)
	for i := 0; i < blocks; i++ {
		target := int64(i * 600) // scattered
		randomTime += m.AccessTime(pos, target, 1)
		pos = target + 1
	}
	if randomTime < 4*segTime {
		t.Fatalf("random writes (%v) should be ≥4× slower than one segment write (%v)", randomTime, segTime)
	}
	// And the segment write should achieve a large fraction of media bandwidth.
	media := m.TransferTime(blocks * m.BlockSize)
	util := float64(media) / float64(segTime)
	if util < 0.85 {
		t.Fatalf("segment write utilization = %.2f, want > 0.85", util)
	}
}

func TestCostModelSyncGap(t *testing.T) {
	c := SpriteCosts()
	// Without test-and-set the user-level sync must cost more than kernel sync.
	if c.UserSync() <= c.KernelSync() {
		t.Fatalf("UserSync %v should exceed KernelSync %v on Sprite costs", c.UserSync(), c.KernelSync())
	}
	f := FastSyncCosts()
	if f.UserSync() != f.KernelSync() {
		t.Fatalf("with fast user sync the gap should close: user %v kernel %v", f.UserSync(), f.KernelSync())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce same sequence")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should diverge")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	f := func(n uint8) bool {
		bound := int(n%100) + 1
		v := r.Intn(bound)
		return v >= 0 && v < bound
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid permutation at value %d", v)
		}
		seen[v] = true
	}
}

func TestRNGRoughUniformity(t *testing.T) {
	r := NewRNG(2026)
	buckets := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		buckets[r.Intn(10)]++
	}
	for i, b := range buckets {
		if b < n/10-n/50 || b > n/10+n/50 {
			t.Fatalf("bucket %d count %d deviates too far from %d", i, b, n/10)
		}
	}
}
