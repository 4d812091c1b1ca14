package disk

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/sim"
)

// twoDevices returns two devices on one clock, joined into one crash set.
func twoDevices() (*Device, *Device, *CrashSet) {
	clk := sim.NewClock()
	a, b := New(sim.SmallModel(), clk), New(sim.SmallModel(), clk)
	return a, b, NewCrashSet(a, b)
}

// A CrashSet counts write ops across its members in one sequence and takes
// every member down at once; ClearCrash reboots them all with exactly what
// was durable before the crashing op.
func TestCrashSetWholeMachine(t *testing.T) {
	a, b, cs := twoDevices()
	if err := a.Write(0, block(a, 1)); err != nil { // op 1
		t.Fatal(err)
	}
	if err := b.WriteRun(0, [][]byte{block(b, 2), block(b, 3)}); err != nil { // op 2
		t.Fatal(err)
	}
	if got := cs.WriteOps(); got != 2 {
		t.Fatalf("WriteOps = %d, want 2 across both devices", got)
	}
	cs.CrashAfter(3, false, 7)
	if err := a.Write(1, block(a, 4)); !errors.Is(err, ErrCrashed) { // op 3, on a
		t.Fatalf("crashing write: got %v, want ErrCrashed", err)
	}
	if !cs.Crashed() {
		t.Fatal("set not marked crashed")
	}
	// The member that did not write is down too.
	if err := b.Read(0, block(b, 0)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read on the other member after the crash: got %v, want ErrCrashed", err)
	}
	cs.ClearCrash()
	for _, c := range []struct {
		dev  *Device
		addr int64
		want byte
	}{{a, 0, 1}, {a, 1, 0}, {b, 0, 2}, {b, 1, 3}} {
		got, err := c.dev.Peek(c.addr)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != c.want {
			t.Fatalf("block %d after reboot = %d, want %d", c.addr, got[0], c.want)
		}
	}
	// After ClearCrash both members accept traffic again.
	if err := a.Write(2, block(a, 5)); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(2, block(b, 6)); err != nil {
		t.Fatal(err)
	}
}

// Torn whole-machine crash: the prefix is deterministic in the seed and
// lands only on the device servicing the crashing run.
func TestCrashSetTornPrefixDeterministic(t *testing.T) {
	run := func(seed uint64) []byte {
		a, b, cs := twoDevices()
		cs.CrashAfter(1, true, seed)
		bufs := make([][]byte, 8)
		for i := range bufs {
			bufs[i] = block(b, byte(i+1))
		}
		if err := b.WriteRun(0, bufs); !errors.Is(err, ErrCrashed) {
			t.Fatalf("torn crash: got %v, want ErrCrashed", err)
		}
		cs.ClearCrash()
		fills := make([]byte, len(bufs))
		for i := range fills {
			got, err := b.Peek(int64(i))
			if err != nil {
				t.Fatal(err)
			}
			fills[i] = got[0]
			if other, err := a.Peek(int64(i)); err != nil || other[0] != 0 {
				t.Fatalf("seed %d: torn prefix leaked onto the other device at block %d", seed, i)
			}
		}
		return fills
	}
	longest := 0
	for seed := uint64(1); seed <= 8; seed++ {
		x, y := run(seed), run(seed)
		if !bytes.Equal(x, y) {
			t.Fatalf("seed %d: torn prefix not deterministic: %v vs %v", seed, x, y)
		}
		k := 0
		for k < len(x) && x[k] == byte(k+1) {
			k++
		}
		if !bytes.Equal(x[k:], make([]byte, len(x)-k)) {
			t.Fatalf("seed %d: survivors are not a prefix: %v", seed, x)
		}
		longest = max(longest, k)
	}
	if longest == 0 {
		t.Fatal("no seed tore a non-empty prefix; the leak check never ran")
	}
}
