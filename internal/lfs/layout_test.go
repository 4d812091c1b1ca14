package lfs

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
)

// The layout rule (takeChunk): a flush that needs several partial segments
// fills the current segment to within minSegmentTail and continues at the
// next segment's first block; a flush that fits one partial is that one
// partial, in the current segment if it fits, else at the next one's start.

// placed is one partial segment of a flush: where it starts and its summary.
type placed struct {
	seg, off int64
	sum      summary
}

// partialsSince returns the partial segments written with sequence numbers
// from seq on, in log order, from the summary cache (complete for every
// segment a freshly formatted file system has filled from its first block).
func partialsSince(fs *FS, seq uint64) []placed {
	var out []placed
	for seg, sums := range fs.sumCache {
		for _, s := range sums {
			if s.Seq >= seq {
				out = append(out, placed{seg: seg, off: s.SelfAddr - fs.segBase(seg), sum: s})
			}
		}
	}
	slices.SortFunc(out, func(a, b placed) int { return cmp.Compare(a.sum.Seq, b.sum.Seq) })
	return out
}

// headTo walks the log head with commit forces of /pad, a direct-range file
// with its final size, until exactly room blocks are left in the current
// segment. Each force is summary + n data blocks: no inode pack, no pointer.
// Every write is a new version of the whole block, so no force is
// summary-only.
func headTo(fs *FS, room int64) error {
	bs := fs.BlockSize()
	pad, err := fs.Create("/pad")
	if err != nil {
		return err
	}
	defer pad.Close()
	v := 0
	write := func(n int64) error {
		v++
		for lbn := int64(0); lbn < n; lbn++ {
			if _, err := pad.WriteAt(stamped(bs, lbn, v), lbn*int64(bs)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := write(NDirect); err != nil {
		return err
	}
	if err := fs.Sync(); err != nil {
		return err
	}
	left := func() int64 { return fs.sb.SegmentBlocks - fs.curOff }
	for tries := 0; left() != room; tries++ {
		if tries > 2*int(fs.sb.SegmentBlocks) {
			return fmt.Errorf("log head never came to rest %d blocks short of a segment end", room)
		}
		r := left() - room // blocks still to consume
		n := min(r-1, NDirect)
		switch {
		case r < 2:
			n = NDirect // a partial has at least 2 blocks: overshoot into the next segment
		case r-(1+n) == 1:
			n-- // do not leave exactly 1
		}
		if err := write(n); err != nil {
			return err
		}
		if err := pad.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// writeBlocks writes blocks lbn 0..n-1 of path at version v.
func writeBlocks(fs *FS, path string, n int64, v int) error {
	f, err := fs.Open(path)
	if err != nil {
		if f, err = fs.Create(path); err != nil {
			return err
		}
	}
	defer f.Close()
	for lbn := int64(0); lbn < n; lbn++ {
		if _, err := f.WriteAt(stamped(fs.BlockSize(), lbn, v), lbn*int64(fs.BlockSize())); err != nil {
			return err
		}
	}
	return nil
}

// TestMultiPartialFlushFillsSegment: a full flush of 200 blocks, started with
// 95 blocks left in the segment, writes a first partial that ends within
// minSegmentTail of the segment's end and goes on at the next segment's first
// block; every partial but the last is flagged sumFlagCont.
func TestMultiPartialFlushFillsSegment(t *testing.T) {
	fs, _, _ := newFS(t)
	const room = 95
	if err := headTo(fs, room); err != nil {
		t.Fatal(err)
	}
	if err := writeBlocks(fs, "/big", 200, 1); err != nil {
		t.Fatal(err)
	}
	seg, seq, skipped := fs.curSeg, fs.seq, fs.Stats().SkippedTailBlocks
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	ps := partialsSince(fs, seq)
	if len(ps) < 2 {
		t.Fatalf("the flush wrote %d partial segments, want several", len(ps))
	}
	first := ps[0]
	if first.seg != seg || first.off != fs.sb.SegmentBlocks-room {
		t.Fatalf("first partial at segment %d offset %d, want segment %d offset %d", first.seg, first.off, seg, fs.sb.SegmentBlocks-room)
	}
	if end := first.off + 1 + int64(first.sum.NBlocks); fs.sb.SegmentBlocks-end >= minSegmentTail {
		t.Fatalf("first partial of %d blocks ends at offset %d: %d blocks of segment %d left unwritten, want fewer than %d",
			1+first.sum.NBlocks, end, fs.sb.SegmentBlocks-end, seg, minSegmentTail)
	}
	if got := fs.Stats().SkippedTailBlocks - skipped; got >= minSegmentTail {
		t.Fatalf("SkippedTailBlocks grew by %d across the flush, want fewer than %d", got, minSegmentTail)
	}
	if second := ps[1]; second.seg == seg || second.off != 0 {
		t.Fatalf("second partial at segment %d offset %d, want the first block of the segment after %d", second.seg, second.off, seg)
	}
	for i, p := range ps {
		if cont, last := p.sum.Flags&sumFlagCont != 0, i == len(ps)-1; cont == last {
			t.Fatalf("partial %d of %d: sumFlagCont %v", i+1, len(ps), cont)
		}
	}
	if rep, err := fs.Fsck(); err != nil || !rep.OK() {
		t.Fatalf("fsck: %v %+v", err, rep)
	}
	fs2 := remount(t, fs)
	if err := (fileImage{version: versions(200, 1), blocks: 200}).matches(fs2, "/big"); err != nil {
		t.Fatal(err)
	}
}

// versions returns an image's version map: blocks 0..n-1 at version v.
func versions(n int64, v int) map[int64]int {
	m := make(map[int64]int, n)
	for lbn := int64(0); lbn < n; lbn++ {
		m[lbn] = v
	}
	return m
}

// TestOnePartialFlushSkipsTheTail: a flush that fits one partial but not the
// room left is that one partial, unflagged, at the next segment's first block;
// the room it passed over is counted in SkippedTailBlocks.
func TestOnePartialFlushSkipsTheTail(t *testing.T) {
	fs, _, _ := newFS(t)
	const room = 20
	if err := headTo(fs, room); err != nil {
		t.Fatal(err)
	}
	if err := writeBlocks(fs, "/mid", 30, 1); err != nil {
		t.Fatal(err)
	}
	seg, seq, skipped := fs.curSeg, fs.seq, fs.Stats().SkippedTailBlocks
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	ps := partialsSince(fs, seq)
	if len(ps) != 1 {
		t.Fatalf("the flush wrote %d partial segments, want one", len(ps))
	}
	if p := ps[0]; p.seg == seg || p.off != 0 || p.sum.Flags&sumFlagCont != 0 {
		t.Fatalf("partial at segment %d offset %d, flags %#x; want the first block of the segment after %d, unflagged", p.seg, p.off, p.sum.Flags, seg)
	}
	if got := fs.Stats().SkippedTailBlocks - skipped; got != room {
		t.Fatalf("SkippedTailBlocks grew by %d, want the %d blocks passed over", got, room)
	}
}

// boundaryChainScript forces 150 blocks of /f with 40 blocks left in the
// segment: a commit force of several partials, the first filling the segment
// and the rest in the next one.
func boundaryChainScript(fs *FS, after func(step int, im fileImage)) error {
	if err := writeBlocks(fs, "/f", 20, 1); err != nil {
		return err
	}
	if err := headTo(fs, 40); err != nil {
		return err
	}
	after(0, fileImage{version: versions(20, 1), blocks: 20})
	if err := writeBlocks(fs, "/f", 150, 2); err != nil {
		return err
	}
	f, err := fs.Open("/f")
	if err != nil {
		return err
	}
	defer f.Close()
	seg, seq := fs.curSeg, fs.seq
	if err := f.Sync(); err != nil {
		return err
	}
	if ps := partialsSince(fs, seq); len(ps) < 2 || ps[0].seg != seg || ps[len(ps)-1].seg == seg {
		return fmt.Errorf("the force wrote %d partials from segment %d to %d, want a chain across the boundary", len(ps), seg, fs.curSeg)
	}
	after(1, fileImage{version: versions(150, 2), blocks: 150})
	return nil
}

// TestBoundaryChainCrashAtEveryWrite: roll-forward applies a commit force's
// chain across a segment boundary whole or not at all, wherever it is cut.
func TestBoundaryChainCrashAtEveryWrite(t *testing.T) {
	crashAtEveryWrite(t, Options{}, boundaryChainScript)
}
