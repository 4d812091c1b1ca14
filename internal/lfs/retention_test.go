package lfs

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/vfs"
)

// fakeRetention retains every disk address while pinned, nothing after.
type fakeRetention struct{ pinned bool }

func (r *fakeRetention) RetainsRange(lo, hi int64) bool { return r.pinned }
func (r *fakeRetention) RetainedBlocks() int64 {
	if r.pinned {
		return 1
	}
	return 0
}
func (r *fakeRetention) HorizonLag() int64 { return 0 }

// TestCleanerRetentionGate: while a snapshot retention horizon pins
// superseded versions, the cleaner must pass over otherwise-cleanable
// segments (counting each skip) and resume reclaiming the moment the
// horizon releases — the cleaner side of "the horizon advances exactly when
// the last pinning snapshot closes".
func TestCleanerRetentionGate(t *testing.T) {
	fs, _, _ := tinyFS(t)
	for round := 0; round < 3; round++ {
		f, err := fs.Open("/churn")
		if errors.Is(err, vfs.ErrNotExist) {
			f, err = fs.Create("/churn")
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(pattern(64*4096, byte(13+round)), 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	ret := &fakeRetention{pinned: true}
	fs.SetSnapshotRetention(ret)
	cleaned, err := cleanOnce(fs)
	if err != nil {
		t.Fatal(err)
	}
	if cleaned {
		t.Fatal("cleaner reclaimed a segment the retention horizon pins")
	}
	if fs.Stats().Cleaner.RetentionSkips == 0 {
		t.Fatal("cleaner recorded no retention skips while everything was pinned")
	}

	// Horizon releases: the same pass must now find a victim.
	ret.pinned = false
	cleaned, err = cleanOnce(fs)
	if err != nil {
		t.Fatal(err)
	}
	if !cleaned {
		t.Fatal("cleaner still idle after the retention horizon released")
	}
	if got := readFile(t, fs, "/churn"); !bytes.Equal(got, pattern(64*4096, 15)) {
		t.Fatal("cleaner corrupted live data")
	}
}
