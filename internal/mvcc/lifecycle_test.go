package mvcc_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/lfs"
	"repro/internal/libtp"
	"repro/internal/mvcc"
	"repro/internal/pagestore"
	"repro/internal/sim"
)

// old is the byte page 0 of a fresh rig's file holds throughout.
const old = 1

// rig is one transaction manager over a file whose page 0 holds old in every
// byte, committed before any snapshot is pinned.
type rig struct {
	// Write starts a transaction that sets every byte of page 0 to v, and
	// returns its commit (which must make it visible to every snapshot
	// pinned afterwards).
	Write func(t *testing.T, v byte) (commit func())
	// Pin begins a snapshot and returns its store over the file and its
	// Close.
	Pin func() (pagestore.Store, func())
	// DeltaBytes is the size of the manager's version store.
	DeltaBytes func() int64
}

// TestSnapshotLifecycle is the snapshot transaction's conformance table: the
// same cases run on a LIBTP environment and on the embedded manager, as
// fstest runs one contract over the file systems, so the two stay one
// mechanism — the same pins, seeds, stamps, prunes and refusals.
func TestSnapshotLifecycle(t *testing.T) {
	tests := []struct {
		name string
		fn   func(t *testing.T, r rig)
	}{
		{"WritesAreRefused", testWritesAreRefused},
		{"ReadAfterCloseFails", testReadAfterCloseFails},
		{"LastCloseEmptiesTheStore", testLastCloseEmptiesTheStore},
		{"FirstPinRewindsAnInFlightWrite", testFirstPinRewindsInFlight},
		{"CommitUnderAPinStaysAfter", testCommitUnderAPinStaysAfter},
		{"CommitWithNoOlderPinRecordsNothing", testCommitWithNoOlderPin},
	}
	for _, m := range []struct {
		name  string
		build func(t *testing.T) rig
	}{{"user", userRig}, {"kernel", kernelRig}} {
		for _, tc := range tests {
			t.Run(m.name+"/"+tc.name, func(t *testing.T) {
				tc.fn(t, m.build(t))
			})
		}
	}
}

// formatLFS formats a small LFS on a fresh device and clock.
func formatLFS(t *testing.T) (*sim.Clock, *lfs.FS) {
	t.Helper()
	clk := sim.NewClock()
	fsys, err := lfs.Format(disk.New(sim.SmallModel(), clk), clk, lfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return clk, fsys
}

// userRig is a LIBTP environment over LFS.
func userRig(t *testing.T) rig {
	clk, fsys := formatLFS(t)
	env, err := libtp.NewEnv(fsys, clk, libtp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := env.OpenDB("/db")
	if err != nil {
		t.Fatal(err)
	}
	ps := fsys.BlockSize()
	write := func(t *testing.T, v byte) func() {
		txn := env.Begin()
		st := txn.Store(db)
		if n, _ := st.NumPages(); n == 0 {
			if _, err := st.AllocPage(); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.WritePage(0, bytes.Repeat([]byte{v}, ps)); err != nil {
			t.Fatal(err)
		}
		return func() {
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(t, old)()
	return rig{
		Write: write,
		Pin: func() (pagestore.Store, func()) {
			s := env.BeginSnapshot()
			return s.Store(db), s.Close
		},
		DeltaBytes: env.VersionBytes,
	}
}

// kernelRig is the embedded manager over LFS.
func kernelRig(t *testing.T) rig {
	clk, fsys := formatLFS(t)
	m := core.New(fsys, clk, core.Options{})
	f, err := m.Create("/acct")
	if err != nil {
		t.Fatal(err)
	}
	ps := fsys.BlockSize()
	if _, err := m.NewProcess().Write(f, bytes.Repeat([]byte{old}, ps), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Protect("/acct"); err != nil {
		t.Fatal(err)
	}
	return rig{
		Write: func(t *testing.T, v byte) func() {
			p := m.NewProcess()
			if err := p.TxnBegin(); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Write(f, bytes.Repeat([]byte{v}, ps), 0); err != nil {
				t.Fatal(err)
			}
			return func() {
				if err := p.TxnCommit(); err != nil {
					t.Fatal(err)
				}
			}
		},
		Pin: func() (pagestore.Store, func()) {
			s := m.BeginSnapshot()
			return s.Store(f), s.Close
		},
		DeltaBytes: m.VersionBytes,
	}
}

// read returns the byte page 0 holds through st, which must be uniform.
func read(t *testing.T, st pagestore.Store) byte {
	t.Helper()
	p := make([]byte, st.PageSize())
	if err := st.ReadPage(0, p); err != nil {
		t.Fatalf("snapshot read: %v", err)
	}
	if len(bytes.Trim(p, string(p[:1]))) != 0 {
		t.Fatalf("page 0 through the snapshot mixes two versions: % x", p[:16])
	}
	return p[0]
}

func want(t *testing.T, st pagestore.Store, v byte, when string) {
	t.Helper()
	if got := read(t, st); got != v {
		t.Fatalf("%s: the snapshot reads %d, want %d", when, got, v)
	}
}

func wantBytes(t *testing.T, r rig, n int64, when string) {
	t.Helper()
	if got := r.DeltaBytes(); got != n {
		t.Fatalf("%s: the version store holds %d bytes, want %d", when, got, n)
	}
}

func testWritesAreRefused(t *testing.T, r rig) {
	st, done := r.Pin()
	defer done()
	if err := st.WritePage(0, make([]byte, st.PageSize())); !errors.Is(err, mvcc.ErrReadOnly) {
		t.Errorf("WritePage through a snapshot: %v, want mvcc.ErrReadOnly", err)
	}
	if _, err := st.AllocPage(); !errors.Is(err, mvcc.ErrReadOnly) {
		t.Errorf("AllocPage through a snapshot: %v, want mvcc.ErrReadOnly", err)
	}
	want(t, st, old, "after the refused writes")
}

func testReadAfterCloseFails(t *testing.T, r rig) {
	st, done := r.Pin()
	want(t, st, old, "before close")
	done()
	done() // closing twice is a no-op
	if err := st.ReadPage(0, make([]byte, st.PageSize())); !errors.Is(err, mvcc.ErrClosed) {
		t.Fatalf("read after close: %v, want mvcc.ErrClosed", err)
	}
	wantBytes(t, r, 0, "after the double close")
}

// testLastCloseEmptiesTheStore: two snapshots at one horizon hold the
// versions until both close; closing the older of two horizons prunes what
// the newer one sees, and the last close empties the store.
func testLastCloseEmptiesTheStore(t *testing.T, r rig) {
	_, closeA := r.Pin()
	_, closeB := r.Pin()
	r.Write(t, 2)()
	one := r.DeltaBytes()
	if one == 0 {
		t.Fatal("a commit under two pins recorded nothing")
	}
	closeB()
	wantBytes(t, r, one, "one of two snapshots at one horizon closed")
	newer, closeNewer := r.Pin()
	r.Write(t, 3)()
	two := r.DeltaBytes()
	if two <= one {
		t.Fatalf("a second commit under a pin left the store at %d bytes, from %d", two, one)
	}
	closeA()
	wantBytes(t, r, two-one, "the older horizon closed")
	want(t, newer, 2, "after the older close")
	closeNewer()
	wantBytes(t, r, 0, "the last snapshot closed")
}

// testFirstPinRewindsInFlight: the first pin seeds the version store with
// the writes already made by a transaction that commits after it, and the
// snapshot reads around them before and after that commit.
func testFirstPinRewindsInFlight(t *testing.T, r rig) {
	commit := r.Write(t, 2)
	st, done := r.Pin()
	defer done()
	want(t, st, old, "a write in flight at the first pin")
	commit()
	want(t, st, old, "the in-flight write committed after the pin")
	later, doneLater := r.Pin()
	defer doneLater()
	want(t, later, 2, "a pin after the commit")
}

// testCommitUnderAPinStaysAfter: a commit made while a snapshot is pinned is
// after it for its whole life, and before every later pin.
func testCommitUnderAPinStaysAfter(t *testing.T, r rig) {
	st, done := r.Pin()
	defer done()
	r.Write(t, 2)()
	want(t, st, old, "a commit under the pin")
	later, doneLater := r.Pin()
	r.Write(t, 3)()
	want(t, st, old, "two commits under the pin")
	want(t, later, 2, "the second pin")
	doneLater()
	want(t, st, old, "the newer pin closed")
}

// testCommitWithNoOlderPin: a commit no pinned snapshot predates keeps no
// version — with no pin at all, and after the only pin of a transaction's
// life has closed.
func testCommitWithNoOlderPin(t *testing.T, r rig) {
	r.Write(t, 2)()
	wantBytes(t, r, 0, "a commit with no pin")
	commit := r.Write(t, 3)
	st, done := r.Pin()
	want(t, st, 2, "a write in flight at the pin")
	if r.DeltaBytes() == 0 {
		t.Fatal("the first pin seeded nothing from the write in flight")
	}
	done()
	commit()
	wantBytes(t, r, 0, "a commit after its only pin closed")
	st, done = r.Pin()
	defer done()
	want(t, st, 3, "a pin after the commit")
	wantBytes(t, r, 0, "a pin with nothing in flight")
}
