package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/lfs"
	"repro/internal/sim"
)

// twoWritersOnePage has p1 write record A (slot 0) of a page and commit a
// simulated second later, while p2 writes record B (slot 7) of the SAME page
// in between. It returns when p2's write came back, when p1 began its commit,
// and how many lock requests had to wait.
func twoWritersOnePage(t *testing.T, opts Options) (wroteB, commitA time.Duration, waited int64) {
	t.Helper()
	r := newRig(t, opts)
	f := r.mkProtected(t, "/db", pat(4096, 1))
	runProcs(r,
		func() {
			p1 := r.m.NewProcess()
			p1.TxnBegin()
			if _, err := p1.Write(f, []byte("AAAA"), 0); err != nil {
				t.Error(err)
			}
			later(r)
			commitA = r.clk.Now()
			if err := p1.TxnCommit(); err != nil {
				t.Error(err)
			}
		},
		func() {
			p2 := r.m.NewProcess()
			p2.TxnBegin()
			if _, err := p2.Write(f, []byte("BBBB"), 4000); err != nil {
				t.Error(err)
			}
			wroteB = r.clk.Now()
			if err := p2.TxnCommit(); err != nil {
				t.Error(err)
			}
		})
	got := make([]byte, 4096)
	r.m.NewProcess().Read(f, got, 0)
	if !bytes.Equal(got[0:4], []byte("AAAA")) || !bytes.Equal(got[4000:4004], []byte("BBBB")) {
		t.Fatal("both writes must land")
	}
	return wroteB, commitA, r.m.LockStats().Waited
}

// TestSubPageConcurrentWritersSamePage is the point of the [16] enhancement:
// two transactions writing different records of the SAME page proceed
// concurrently under sub-page locking, where page locking would serialize
// them.
func TestSubPageConcurrentWritersSamePage(t *testing.T) {
	wroteB, commitA, waited := twoWritersOnePage(t, Options{Granularity: SubPage})
	if waited != 0 || wroteB >= commitA {
		t.Fatalf("p2 wrote at %v after %d lock wait(s), p1 committed at %v: sub-page writers to distinct slots should not block each other",
			wroteB, waited, commitA)
	}
}

// TestPageGranularityStillSerializes checks the paper's measured behaviour
// remains the default: writers to the same page conflict.
func TestPageGranularityStillSerializes(t *testing.T) {
	wroteB, commitA, waited := twoWritersOnePage(t, Options{})
	if waited != 1 || wroteB < commitA {
		t.Fatalf("p2 wrote at %v after %d lock wait(s), p1 committed at %v: page-granularity writers to one page must serialize",
			wroteB, waited, commitA)
	}
}

// TestSubPageAbortRestoresOnlyOwnBytes: abort under sub-page locking applies
// byte-range before-images and must not disturb a concurrent transaction's
// bytes in the same page.
func TestSubPageAbortRestoresOnlyOwnBytes(t *testing.T) {
	r := newRig(t, Options{Granularity: SubPage})
	f := r.mkProtected(t, "/db", pat(4096, 1))
	p1 := r.m.NewProcess()
	p2 := r.m.NewProcess()
	p1.TxnBegin()
	p2.TxnBegin()
	if _, err := p1.Write(f, []byte("KEEP"), 0); err != nil { // slot 0
		t.Fatal(err)
	}
	if _, err := p2.Write(f, []byte("DROP"), 4000); err != nil { // slot 7
		t.Fatal(err)
	}
	if err := p2.TxnAbort(); err != nil {
		t.Fatal(err)
	}
	if err := p1.TxnCommit(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	p := r.m.NewProcess()
	p.Read(f, got, 0)
	want := pat(4096, 1)
	copy(want[0:], []byte("KEEP"))
	if !bytes.Equal(got, want) {
		t.Fatal("abort must restore exactly the aborted transaction's bytes")
	}
}

// TestSubPageAbortSequence: multiple overlapping writes by one transaction
// roll back in reverse order to the original state.
func TestSubPageAbortSequence(t *testing.T) {
	r := newRig(t, Options{Granularity: SubPage})
	orig := pat(4096, 3)
	f := r.mkProtected(t, "/db", orig)
	p := r.m.NewProcess()
	p.TxnBegin()
	p.Write(f, []byte("11111111"), 100)
	p.Write(f, []byte("2222"), 102) // overlaps the first write
	p.Write(f, []byte("333"), 600)
	if err := p.TxnAbort(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	p.Read(f, got, 0)
	if !bytes.Equal(got, orig) {
		t.Fatal("overlapping writes must unwind to the original bytes")
	}
}

// TestSubPageCommitDurable: commit durability under sub-page locking, with a
// crash after commit.
func TestSubPageCommitDurable(t *testing.T) {
	r := newRig(t, Options{Granularity: SubPage})
	f := r.mkProtected(t, "/db", pat(8192, 1))
	p := r.m.NewProcess()
	p.TxnBegin()
	p.Write(f, []byte("DURABLE!"), 4096)
	if err := p.TxnCommit(); err != nil {
		t.Fatal(err)
	}
	fs2 := mustMount(t, r)
	g, err := fs2.Open("/db")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	g.ReadAt(got, 4096)
	if string(got) != "DURABLE!" {
		t.Fatalf("got %q after crash", got)
	}
}

// TestSubPageSharedPageCommit: a transaction that commits while another
// still holds slots of the same page is durable at once, and the log
// receives the page without the other transaction's uncommitted bytes.
func TestSubPageSharedPageCommit(t *testing.T) {
	r := newRig(t, Options{Granularity: SubPage})
	f := r.mkProtected(t, "/db", pat(4096, 1))
	p1 := r.m.NewProcess()
	p2 := r.m.NewProcess()
	p1.TxnBegin()
	p2.TxnBegin()
	p1.Write(f, []byte("AAAA"), 0)
	p2.Write(f, []byte("BBBB"), 4000)
	if err := p1.TxnCommit(); err != nil {
		t.Fatal(err)
	}
	read := func() []byte {
		g, err := mountCopy(t, r).Open("/db")
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 4096)
		g.ReadAt(got, 0)
		return got
	}
	// Crash now: p1 is durable, p2 invisible.
	want := pat(4096, 1)
	copy(want[0:], "AAAA")
	if !bytes.Equal(read(), want) {
		t.Fatal("after p1's commit the log must hold p1's bytes and none of p2's")
	}
	if err := p2.TxnCommit(); err != nil {
		t.Fatal(err)
	}
	copy(want[4000:], "BBBB")
	if !bytes.Equal(read(), want) {
		t.Fatal("both committed transactions must be durable after p2's commit")
	}
}

// mustMount remounts the rig's device as a fresh file system (a crash).
func mustMount(t *testing.T, r *rig) *lfs.FS {
	t.Helper()
	fs2, err := lfs.Mount(r.dev, r.clk, lfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return fs2
}

// mountCopy mounts a copy of the rig's device: what a crash at this instant
// would recover, without disturbing the running file system (mounting writes
// a checkpoint).
func mountCopy(t *testing.T, r *rig) *lfs.FS {
	t.Helper()
	var img bytes.Buffer
	if err := r.dev.SaveImage(&img); err != nil {
		t.Fatal(err)
	}
	return mountImage(t, r, &img)
}

// mountImage mounts a device image saved from the rig's device.
func mountImage(t *testing.T, r *rig, img *bytes.Buffer) *lfs.FS {
	t.Helper()
	clk := sim.NewClock()
	dev, err := disk.LoadImage(r.dev.Model(), clk, img)
	if err != nil {
		t.Fatal(err)
	}
	fs2, err := lfs.Mount(dev, clk, lfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return fs2
}
