package buffer

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/sim"
)

// lruDirty is the reference for Dirty: the walk of the whole LRU, front to
// back, that the dirty set replaced. File systems' simulated numbers depend on
// the order of what it returns, so the set must reproduce it exactly.
func lruDirty(p *Pool) []*Buf {
	var out []*Buf
	for e := p.lru.Front(); e != nil; e = e.Next() {
		if b := e.Value.(*Buf); b.dirty && !b.held {
			out = append(out, b)
		}
	}
	return out
}

func ids(bufs []*Buf) []BlockID {
	out := make([]BlockID, len(bufs))
	for i, b := range bufs {
		out[i] = b.ID
	}
	return out
}

// A seeded random walk over everything that flips a dirty flag or moves a
// buffer in the LRU: after every step Dirty and DirtyFile equal the reference
// walk, and FlushAll writes in exactly the reverse order.
func TestDirtySetMatchesLRUWalk(t *testing.T) {
	var wrote []BlockID
	p := New(12, 8, func(id BlockID, _ []byte) error {
		wrote = append(wrote, id)
		return nil
	})
	rng := sim.NewRNG(22)
	randomID := func() BlockID {
		return BlockID{File: FileID(1 + rng.Intn(3)), Block: int64(rng.Intn(10))}
	}
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(100); {
		case op < 55: // hit or miss (the misses evict, dirty ones through the write-back)
			b, err := p.Get(randomID(), nil)
			if errors.Is(err, ErrNoBuffers) {
				break // every resident buffer is on hold just now
			}
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			switch rng.Intn(4) {
			case 0, 1:
				p.MarkDirty(b)
			case 2:
				p.MarkClean(b)
			}
			p.Release(b)
		case op < 70:
			if b := p.Lookup(randomID()); b != nil {
				p.SetHold(b, !b.Held())
			}
		case op < 80:
			if b := p.Lookup(randomID()); b != nil {
				p.MarkClean(b)
			}
		case op < 90:
			if err := p.Invalidate(randomID()); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		case op < 94:
			if err := p.InvalidateFile(FileID(1 + rng.Intn(3))); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		default:
			want := ids(lruDirty(p))
			slices.Reverse(want)
			wrote = wrote[:0]
			if err := p.FlushAll(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if !slices.Equal(wrote, want) {
				t.Fatalf("step %d: FlushAll wrote %v, want LRU-first %v", step, wrote, want)
			}
		}

		want := lruDirty(p)
		if got := p.Dirty(); !slices.Equal(got, want) {
			t.Fatalf("step %d: Dirty() = %v, LRU walk = %v", step, ids(got), ids(want))
		}
		f := FileID(1 + step%3)
		want = slices.DeleteFunc(want, func(b *Buf) bool { return b.ID.File != f })
		if got := p.DirtyFile(f); !slices.Equal(got, want) {
			t.Fatalf("step %d: DirtyFile(%d) = %v, LRU walk = %v", step, f, ids(got), ids(want))
		}
	}
	if st := p.Stats(); st.Evictions == 0 || st.WriteBacks == 0 {
		t.Fatalf("the walk never evicted through the write-back: %+v", st)
	}
}

// A clean buffer carries no links, so nothing keeps an evicted header alive
// through the dirty set.
func TestCleanBufferLeavesDirtySet(t *testing.T) {
	p := New(4, 8, nil)
	var bufs []*Buf
	for i := int64(0); i < 3; i++ {
		b, _ := p.Get(BlockID{1, i}, nil)
		p.MarkDirty(b)
		p.MarkDirty(b) // idempotent: linked once
		p.Release(b)
		bufs = append(bufs, b)
	}
	p.MarkClean(bufs[1]) // middle
	p.MarkClean(bufs[2]) // head
	p.MarkClean(bufs[0]) // last
	p.MarkClean(bufs[0])
	if p.dirtyHead != nil {
		t.Fatal("dirty set not empty after every buffer was cleaned")
	}
	for _, b := range bufs {
		if b.dirtyPrev != nil || b.dirtyNext != nil {
			t.Fatalf("clean buffer %v still linked", b.ID)
		}
	}
}

var dirtySink []*Buf

// BenchmarkDirtySparse is a commit force's view of a paper-sized cache:
// 100,000 resident blocks of which a transaction dirtied four. The lru-walk
// case is the loop Dirty replaced, for scale.
func BenchmarkDirtySparse(b *testing.B) {
	const resident = 100000
	p := New(resident, 8, nil)
	for i := int64(0); i < resident; i++ {
		buf, err := p.Get(BlockID{1, i}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i%(resident/4) == 0 {
			p.MarkDirty(buf)
		}
		p.Release(buf)
	}
	for _, bc := range []struct {
		name  string
		dirty func(*Pool) []*Buf
	}{
		{"dirty-set", (*Pool).Dirty},
		{"lru-walk", lruDirty},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dirtySink = bc.dirty(p)
			}
			if len(dirtySink) != 4 {
				b.Fatalf("%d dirty, want 4", len(dirtySink))
			}
		})
	}
}
