package disk

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

func testArrayModel(perDev int64) sim.DiskModel {
	m := sim.RZ55Model()
	m.NumBlocks = perDev
	return m
}

func fill(bs int, v byte) []byte {
	b := make([]byte, bs)
	for i := range b {
		b[i] = v
	}
	return b
}

// Striped and partitioned arrays must behave as one flat device: whatever a
// run writes at a global address, single-block reads at the same addresses
// get back, and vice versa.
func TestArrayReadWriteRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		layout Layout
		stripe int64
	}{
		{"stripe1", LayoutStripe, 1},
		{"stripe4", LayoutStripe, 4},
		{"partition", LayoutPartition, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := sim.NewClock()
			arr, err := NewArray(testArrayModel(64), clk, 3, tc.layout, tc.stripe)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := arr.NumBlocks(), int64(3*64); got != want {
				t.Fatalf("NumBlocks = %d, want %d", got, want)
			}
			bs := arr.BlockSize()
			// Write a 13-block run spanning several stripe units / a
			// partition boundary, each block tagged with its index.
			start := int64(58)
			var run [][]byte
			for i := 0; i < 13; i++ {
				run = append(run, fill(bs, byte(i+1)))
			}
			if err := arr.WriteRun(start, run); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 13; i++ {
				buf := make([]byte, bs)
				if err := arr.Read(start+int64(i), buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf, run[i]) {
					t.Fatalf("%s: block %d read back wrong contents", tc.name, start+int64(i))
				}
			}
			// Single-block writes then a run read.
			if err := arr.Write(start+2, fill(bs, 0xAA)); err != nil {
				t.Fatal(err)
			}
			back := make([][]byte, 13)
			for i := range back {
				back[i] = make([]byte, bs)
			}
			if err := arr.ReadRun(start, back); err != nil {
				t.Fatal(err)
			}
			if back[2][0] != 0xAA || back[3][0] != 4 {
				t.Fatalf("run read after single write: got %x,%x", back[2][0], back[3][0])
			}
		})
	}
}

// Every global address must map to exactly one (device, local) slot: writing
// a distinct byte to every block and then summing per-device occupancy must
// account for every block exactly once, with no aliasing.
func TestArrayMappingBijective(t *testing.T) {
	for _, tc := range []struct {
		name   string
		layout Layout
		stripe int64
	}{
		{"stripe3", LayoutStripe, 3},
		{"partition", LayoutPartition, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := sim.NewClock()
			arr, err := NewArray(testArrayModel(12), clk, 4, tc.layout, tc.stripe)
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[[2]int64]int64)
			for g := int64(0); g < arr.NumBlocks(); g++ {
				dev, local := arr.locate(g)
				if local < 0 || local >= arr.perDev {
					t.Fatalf("block %d maps to local %d outside [0,%d)", g, local, arr.perDev)
				}
				key := [2]int64{int64(dev), local}
				if prev, dup := seen[key]; dup {
					t.Fatalf("blocks %d and %d alias to device %d local %d", prev, g, dev, local)
				}
				seen[key] = g
			}
			if int64(len(seen)) != arr.NumBlocks() {
				t.Fatalf("mapped %d slots, want %d", len(seen), arr.NumBlocks())
			}
		})
	}
}

// A striped run must fan out across spindles; array stats must be the
// field-wise sum of the member devices, counted once.
func TestArrayStatsAggregation(t *testing.T) {
	clk := sim.NewClock()
	arr, err := NewArray(testArrayModel(64), clk, 4, LayoutStripe, 2)
	if err != nil {
		t.Fatal(err)
	}
	bs := arr.BlockSize()
	var run [][]byte
	for i := 0; i < 16; i++ { // 8 stripe units → 2 per device
		run = append(run, fill(bs, byte(i)))
	}
	if err := arr.WriteRun(0, run); err != nil {
		t.Fatal(err)
	}
	per := arr.PerDevice()
	var wantWrites, wantBlocks int64
	for i, s := range per {
		if s.BlocksWrit != 4 {
			t.Fatalf("device %d got %d blocks, want 4", i, s.BlocksWrit)
		}
		wantWrites += s.Writes
		wantBlocks += s.BlocksWrit
	}
	agg := arr.Stats()
	if agg.Writes != wantWrites || agg.BlocksWrit != wantBlocks {
		t.Fatalf("aggregate %d ops %d blocks, per-device sums %d/%d",
			agg.Writes, agg.BlocksWrit, wantWrites, wantBlocks)
	}
	if agg.BlocksWrit != 16 {
		t.Fatalf("aggregate blocks = %d, want 16 (no double count)", agg.BlocksWrit)
	}
	arr.ResetStats()
	if s := arr.Stats(); s.Writes != 0 || s.BusyTime != 0 {
		t.Fatalf("ResetStats left %+v", s)
	}
}

// Stats.add is written out by hand because Array.Stats runs on the cleaner's
// path; a field added to Stats and forgotten there would silently vanish from
// every array total. Adding a struct of all ones to itself must give all twos.
func TestStatsAddCoversEveryField(t *testing.T) {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(1)
	}
	s.add(s)
	for i := 0; i < v.NumField(); i++ {
		if got := v.Field(i).Int(); got != 2 {
			t.Errorf("Stats.add skips %s: 1+1 = %d", v.Type().Field(i).Name, got)
		}
	}
}

// IdleCredit on an array is the conservative minimum across members.
func TestArrayIdleCreditMin(t *testing.T) {
	clk := sim.NewClock()
	arr, err := NewArray(testArrayModel(64), clk, 2, LayoutPartition, 0)
	if err != nil {
		t.Fatal(err)
	}
	bs := arr.BlockSize()
	arr.ResetIdleCredit()
	clk.Advance(10 * time.Millisecond)
	// Touch only device 1 (second partition), consuming its idle window.
	if err := arr.Write(64, fill(bs, 1)); err != nil {
		t.Fatal(err)
	}
	d0, d1 := arr.Devices()[0].IdleCredit(), arr.Devices()[1].IdleCredit()
	if d0 <= d1 {
		t.Fatalf("expected untouched device to hold more credit: %v vs %v", d0, d1)
	}
	if got := arr.IdleCredit(); got != d1 {
		t.Fatalf("array credit %v, want min %v", got, d1)
	}
}

// A CrashSet counts write ops globally and takes every member down at once;
// only the crashing op's device may carry a torn prefix.
func TestCrashSetWholeMachine(t *testing.T) {
	clk := sim.NewClock()
	arr, err := NewArray(testArrayModel(64), clk, 2, LayoutPartition, 0)
	if err != nil {
		t.Fatal(err)
	}
	cs := NewCrashSet(arr.Devices()...)
	bs := arr.BlockSize()
	if err := arr.Write(0, fill(bs, 1)); err != nil { // op 1, device 0
		t.Fatal(err)
	}
	if err := arr.Write(64, fill(bs, 2)); err != nil { // op 2, device 1
		t.Fatal(err)
	}
	if got := cs.WriteOps(); got != 2 {
		t.Fatalf("global WriteOps = %d, want 2", got)
	}
	cs.CrashAfter(3, false, 7)
	if err := arr.Write(1, fill(bs, 3)); err != ErrCrashed { // op 3 fires on device 0
		t.Fatalf("crashing write: got %v, want ErrCrashed", err)
	}
	if !cs.Crashed() {
		t.Fatal("set not marked crashed")
	}
	// Both members refuse all traffic, including the untouched one.
	if err := arr.Read(64, make([]byte, bs)); err != ErrCrashed {
		t.Fatalf("read on other member after crash: got %v, want ErrCrashed", err)
	}
	// The crashing op persisted nothing; pre-crash writes survive on both.
	cs.ClearCrash()
	b, err := arr.Peek(1)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 0 {
		t.Fatal("crashing write leaked to media")
	}
	for g, want := range map[int64]byte{0: 1, 64: 2} {
		b, err := arr.Peek(g)
		if err != nil {
			t.Fatal(err)
		}
		if b[0] != want {
			t.Fatalf("durable block %d lost: got %x want %x", g, b[0], want)
		}
	}
	// After ClearCrash both members accept traffic again.
	if err := arr.Write(2, fill(bs, 4)); err != nil {
		t.Fatal(err)
	}
	if err := arr.Write(65, fill(bs, 5)); err != nil {
		t.Fatal(err)
	}
}

// Torn whole-machine crash: the prefix is deterministic in the seed and
// lands only on the device servicing the crashing run.
func TestCrashSetTornPrefixDeterministic(t *testing.T) {
	runOnce := func() []byte {
		clk := sim.NewClock()
		arr, err := NewArray(testArrayModel(64), clk, 2, LayoutPartition, 0)
		if err != nil {
			t.Fatal(err)
		}
		cs := NewCrashSet(arr.Devices()...)
		bs := arr.BlockSize()
		cs.CrashAfter(1, true, 42)
		var run [][]byte
		for i := 0; i < 8; i++ {
			run = append(run, fill(bs, byte(i+1)))
		}
		// Run entirely within device 1's partition.
		if err := arr.WriteRun(64, run); err != ErrCrashed {
			t.Fatalf("got %v, want ErrCrashed", err)
		}
		cs.ClearCrash()
		out := make([]byte, 8)
		for i := range out {
			b, err := arr.Peek(64 + int64(i))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = b[0]
		}
		// Device 0 must be untouched.
		b, err := arr.Peek(0)
		if err != nil {
			t.Fatal(err)
		}
		if b[0] != 0 {
			t.Fatal("torn prefix leaked onto the wrong device")
		}
		return out
	}
	a, b := runOnce(), runOnce()
	if !bytes.Equal(a, b) {
		t.Fatalf("torn prefix not deterministic: %v vs %v", a, b)
	}
	// The prefix property: once a zero appears, the rest are zero.
	zero := false
	for _, v := range a {
		if v == 0 {
			zero = true
		} else if zero {
			t.Fatalf("survivors are not a prefix: %v", a)
		}
	}
}
