package buffer

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/frame"
)

// The ownership rule broken on purpose: Data captured while pinned and read
// after the buffer was evicted is poison, not the old page and not silently
// the next tenant's.
func TestEvictionPoisonsCapturedData(t *testing.T) {
	var evicted []byte // what writeback saw
	p := New(1, 64, func(_ BlockID, data []byte) error {
		evicted = append([]byte(nil), data...)
		return nil
	})
	b, err := p.Get(BlockID{File: 1, Block: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	copy(b.Data, "page zero")
	captured := b.Data
	p.MarkDirty(b)
	p.Release(b)

	// The miss below evicts block 0; its fetch sees the recycled frame before
	// anything has overwritten it.
	var recycled []byte
	nb, err := p.Get(BlockID{File: 1, Block: 1}, func(_ BlockID, dst []byte) error {
		recycled = append([]byte(nil), dst...)
		copy(dst, bytes.Repeat([]byte{7}, len(dst)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(nb)
	if !bytes.HasPrefix(evicted, []byte("page zero")) {
		t.Fatal("the dirty eviction must hand writeback the page before its frame is recycled")
	}
	if !bytes.Equal(recycled, bytes.Repeat([]byte{frame.Poison}, 64)) {
		t.Fatalf("a recycled frame must reach fetch poisoned, got % x", recycled[:8])
	}
	if &captured[0] != &nb.Data[0] {
		t.Fatal("the next miss must reuse the evicted block's frame")
	}
	if b.Data != nil {
		t.Fatal("an evicted buffer must not keep a payload")
	}
}

// A miss with fetch == nil hands out zeros, recycled frame or not.
func TestRecycledFrameIsZeroedWithoutFetch(t *testing.T) {
	p := New(1, 64, nil)
	b, _ := p.Get(BlockID{File: 1, Block: 0}, nil)
	copy(b.Data, "junk")
	p.Release(b)
	nb, err := p.Get(BlockID{File: 1, Block: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nb.Data, make([]byte, 64)) {
		t.Fatalf("Get with no fetch must return a zeroed block, got % x", nb.Data[:8])
	}
}

// A full pool's miss recycles the frame of the block it evicts: steady-state
// misses allocate the buffer header and its LRU element, never a payload.
func TestSteadyStateMissAllocatesNoPayload(t *testing.T) {
	const capacity, blockSize = 8, 4096
	p := New(capacity, blockSize, nil)
	next := int64(0)
	miss := func() {
		b, err := p.Get(BlockID{File: 1, Block: next}, nil)
		if err != nil {
			t.Fatal(err)
		}
		p.Release(b)
		next++
	}
	for i := 0; i < 2*capacity; i++ { // fill the pool, then reach steady state
		miss()
	}
	const runs = 1000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		miss()
	}
	runtime.ReadMemStats(&m1)
	perMiss := (m1.TotalAlloc - m0.TotalAlloc) / runs
	if perMiss >= blockSize/8 {
		t.Fatalf("a steady-state miss allocates %d bytes: the %d-byte payload must be recycled", perMiss, blockSize)
	}
	if st := p.Stats(); st.Evictions < runs {
		t.Fatalf("the run must have evicted on every miss, got %d evictions", st.Evictions)
	}
}
