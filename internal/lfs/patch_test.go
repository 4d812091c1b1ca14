package lfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// TestDeltaKeepsChangedRanges: a delta holds the bytes a write changed, not
// the bytes it wrote; runs closer than a patch header join, and a range past
// maxSpans joins its nearer neighbour.
func TestDeltaKeepsChangedRanges(t *testing.T) {
	const bs = 4096
	room := patchRoom(bs, 0)
	old := make([]byte, bs)
	new := bytes.Clone(old)
	copy(new[0:], "header")     // bytes 0-5
	copy(new[16:], "body")      // 16-19: within a header's length of the first run
	copy(new[1000:], "payload") // 1000-1006
	var d delta
	if !d.diff(old, new, 0, room) {
		t.Fatal("a 17-byte change does not fit")
	}
	if got, want := d.ranges(), []span{{0, 20}, {1000, 1007}}; !slices.Equal(got, want) {
		t.Fatalf("ranges %v, want %v", got, want)
	}
	if want := 2*patchHeaderSize + 20 + 7; d.size != want {
		t.Fatalf("size %d, want %d", d.size, want)
	}
	// A rewrite of the same bytes changes nothing.
	before := d
	if !d.diff(new, new, 0, room) || d != before {
		t.Fatal("an identical write changed the delta")
	}
	// More ranges than maxSpans: the last joins its nearer neighbour.
	var m delta
	for i := 0; i <= maxSpans; i++ {
		m.add(100*i, 100*i+1, room)
	}
	if m.n != maxSpans || m.spans[maxSpans-1] != (span{100 * (maxSpans - 1), 100*maxSpans + 1}) {
		t.Fatalf("after %d ranges: %v", maxSpans+1, m.ranges())
	}
	// A change that cannot fit a summary stops the comparison.
	var full delta
	if full.diff(make([]byte, bs), bytes.Repeat([]byte{1}, bs), 0, room) {
		t.Fatal("a whole changed block fits a summary")
	}
}

// TestSummaryOnlyForceSurvivesCrash: File.Sync of a few changed bytes writes
// one block, a summary whose patches carry them, and a crash right after
// recovers them — in a preallocated hole, across a block boundary, in a
// block written whole with mostly zeros (the pool skips the fetch), and again
// after a flushless checkpoint, which must log the patched blocks first, and
// a cleaning pass that moves their logged copies.
func TestSummaryOnlyForceSurvivesCrash(t *testing.T) {
	for _, between := range []bool{false, true} {
		fs, dev, clk := tinyFS(t)
		bs := fs.BlockSize()
		f, err := fs.Create("/log")
		if err != nil {
			t.Fatal(err)
		}
		const blocks = 16
		if err := f.Truncate(blocks * int64(bs)); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil { // nothing to force; from now on writes are measured
			t.Fatal(err)
		}
		im := fileImage{blocks: blocks}
		write := func(pos int64, p []byte) {
			t.Helper()
			if _, err := f.WriteAt(p, pos); err != nil {
				t.Fatal(err)
			}
			for lbn, off := pos/int64(bs), int(pos%int64(bs)); len(p) > 0; lbn, off = lbn+1, 0 {
				n := min(len(p), bs-off)
				im = im.edit(bs, lbn, off, p[:n])
				p = p[n:]
			}
		}
		force := func(what string) {
			t.Helper()
			before := fs.Stats()
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			st := fs.Stats()
			if st.SummaryOnlyForces != before.SummaryOnlyForces+1 || st.BlocksLogged != before.BlocksLogged+1 {
				t.Fatalf("%s: the force logged %d blocks, %d summary-only; want one summary block", what,
					st.BlocksLogged-before.BlocksLogged, st.SummaryOnlyForces-before.SummaryOnlyForces)
			}
		}
		write(3*int64(bs)+100, []byte("into a hole"))
		force("hole")
		write(5*int64(bs)-6, []byte("across the boundary"))
		force("boundary")
		fresh := make([]byte, bs)
		copy(fresh[16:], "a whole block, mostly zeros")
		write(9*int64(bs), fresh)
		force("whole block")
		if between {
			if err := fs.writeCheckpointLocked(); err != nil {
				t.Fatal(err)
			}
			if len(fs.patched) != 0 {
				t.Fatalf("the checkpoint left %d blocks in patches only", len(fs.patched))
			}
			in := fs.inodes[Ino(f.ID())]
			addr := func(lbn int64) int64 {
				a, err := fs.blockAddr(in, lbn)
				if err != nil {
					t.Fatal(err)
				}
				return a
			}
			for _, lbn := range []int64{3, 4, 5, 9} {
				if addr(lbn) == 0 {
					t.Fatalf("block %d has no logged copy after the checkpoint", lbn)
				}
			}
			// Churn a filler file until the segment of block 3's copy is
			// checkpointed and behind the log head, patch block 3 once more,
			// then clean until that segment is free.
			filler, err := fs.Create("/filler")
			if err != nil {
				t.Fatal(err)
			}
			v := 1
			churn := func() {
				t.Helper()
				for lbn := int64(0); lbn < 8; lbn++ {
					if _, err := filler.WriteAt(stamped(bs, lbn, v), lbn*int64(bs)); err != nil {
						t.Fatal(err)
					}
				}
				v++
				if err := filler.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			seg := fs.segOf(addr(3))
			for fs.curSeg == seg {
				churn()
			}
			churn()
			if err := fs.writeCheckpointLocked(); err != nil {
				t.Fatal(err)
			}
			write(3*int64(bs)+200, []byte("after the checkpoint"))
			force("after the checkpoint")
			for i := 0; fs.segs[seg].State != segFree; i++ {
				if i > 64 {
					t.Fatalf("segment %d never cleaned (%d live)", seg, fs.segs[seg].Live)
				}
				if ok, err := cleanOnce(fs); err != nil {
					t.Fatal(err)
				} else if !ok {
					churn()
				}
			}
			write(3*int64(bs)+300, []byte("after cleaning"))
			force("after cleaning")
			write(7*int64(bs)-3, []byte("across again"))
			force("boundary after cleaning")
		}
		fs2, err := Mount(dev, clk, fs.opts) // crash: no unmount
		if err != nil {
			t.Fatal(err)
		}
		if err := im.matches(fs2, "/log"); err != nil {
			t.Fatalf("checkpoint and cleaner between: %v: %v", between, err)
		}
		if rep, err := fs2.Fsck(); err != nil || !rep.OK() {
			t.Fatalf("fsck: %v %+v", err, rep)
		}
	}
}

// TestTornSummarySectorEndsTheLog: a summary-only force whose summary fills
// two sectors is torn at a sector boundary, at a log address an earlier wrap
// of the log left bytes in. Roll-forward ends the log at the torn summary —
// its new first sector, the stale second one — and never applies its patch;
// only the force's whole summary (the acknowledgement lost) makes the patch
// durable. Whatever sectors survive, the rest of the block keeps its stale
// bytes.
func TestTornSummarySectorEndsTheLog(t *testing.T) {
	const lbn, off = 2, 100
	text := bytes.Repeat([]byte("two sectors "), 50) // a 600-byte patch
	survivors := map[int]bool{}
	for seed := uint64(0); seed < 16; seed++ {
		fs, dev, clk := tinyFS(t)
		bs := fs.BlockSize()
		f, err := fs.Create("/log")
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Truncate(4 * int64(bs)); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil { // from now on the file's forces patch
			t.Fatal(err)
		}
		// Churn a filler file until the log head is at an address whose
		// second sector an earlier pass of the log wrote, with enough free
		// segments that the force starts no cleaning pass.
		filler, err := fs.Create("/filler")
		if err != nil {
			t.Fatal(err)
		}
		head := func() int64 { return fs.segBase(fs.curSeg) + fs.curOff }
		for v := 1; ; v++ {
			stale, _ := dev.Peek(head())
			if !allZero(stale[disk.SectorSize:2*disk.SectorSize]) && fs.free >= cleanThreshold && fs.curOff > 0 {
				break
			}
			if v > 2000 {
				t.Fatal("the log never wrapped onto a written address")
			}
			for lbn := int64(0); lbn < 8; lbn++ {
				if _, err := filler.WriteAt(stamped(bs, lbn, v), lbn*int64(bs)); err != nil {
					t.Fatal(err)
				}
			}
			if err := filler.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		addr := head()
		before, _ := dev.Peek(addr)
		if _, err := f.WriteAt(text, lbn*int64(bs)+off); err != nil {
			t.Fatal(err)
		}
		dev.CrashAfter(dev.WriteOps()+1, true, seed)
		if err := f.Sync(); !errors.Is(err, disk.ErrCrashed) {
			t.Fatalf("seed %d: the force returned %v, want a crash", seed, err)
		}
		dev.ClearCrash()
		after, _ := dev.Peek(addr)
		k := 0 // sectors of the summary that reached the media
		for k < bs/disk.SectorSize && !bytes.Equal(after[k*disk.SectorSize:(k+1)*disk.SectorSize], before[k*disk.SectorSize:(k+1)*disk.SectorSize]) {
			k++
		}
		if !bytes.Equal(after[k*disk.SectorSize:], before[k*disk.SectorSize:]) {
			t.Fatalf("seed %d: the torn write changed sectors past its first %d", seed, k)
		}
		if k > 0 && binary.LittleEndian.Uint32(after[44:]) != 2 {
			t.Fatalf("seed %d: the force's summary claims %d sectors, want 2", seed, binary.LittleEndian.Uint32(after[44:]))
		}
		survivors[k] = true

		fs2, err := Mount(dev, clk, fs.opts)
		if err != nil {
			t.Fatal(err)
		}
		im := fileImage{blocks: 4}
		if k == 2 {
			im = im.edit(bs, lbn, off, text)
		}
		if err := im.matches(fs2, "/log"); err != nil {
			t.Fatalf("seed %d, %d of 2 sectors written: %v", seed, k, err)
		}
		if rep, err := fs2.Fsck(); err != nil || !rep.OK() {
			t.Fatalf("seed %d: fsck: %v %+v", seed, err, rep)
		}
	}
	if !survivors[1] {
		t.Fatalf("no seed tore the summary between its sectors (sectors written: %v)", survivors)
	}
}

// TestSummaryOnlyForceUnderTruncate: a shrinking truncate over a block whose
// newest bytes are in patches only checkpoints, so a crash after the file
// regrows finds a hole there, not the patched bytes.
func TestSummaryOnlyForceUnderTruncate(t *testing.T) {
	fs, dev, clk := newFS(t)
	bs := int64(fs.BlockSize())
	f, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(8 * bs); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("patched"), 5*bs+10); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if fs.Stats().SummaryOnlyForces != 1 {
		t.Fatal("the force was not summary-only")
	}
	cps := fs.Stats().Checkpoints
	if err := f.Truncate(2 * bs); err != nil {
		t.Fatal(err)
	}
	if fs.Stats().Checkpoints != cps+1 {
		t.Fatal("truncating a patched block did not checkpoint")
	}
	if err := f.Truncate(8 * bs); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(dev, clk, fs.opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := (fileImage{blocks: 8}).matches(fs2, "/f"); err != nil {
		t.Fatal(err)
	}
}

// TestFlushFileNeverPatches: FlushFile logs a file's dirty blocks whole even
// when the changed bytes would fit a summary.
func TestFlushFileNeverPatches(t *testing.T) {
	fs, _, _ := newFS(t)
	bs := fs.BlockSize()
	f, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(stamped(bs, 0, 1), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil { // packs the new inode; writes are measured from now on
		t.Fatal(err)
	}
	ino := Ino(f.ID())
	if _, err := f.WriteAt([]byte("FlushFile"), 20); err != nil {
		t.Fatal(err)
	}
	if _, refused, err := fs.planForceLocked(map[Ino]bool{ino: true}, nil); err != nil || refused != nil {
		t.Fatal("File.Sync could not patch the change; the comparison needs it to")
	}
	before := fs.Stats()
	if err := fs.FlushFile(vfs.FileID(ino)); err != nil {
		t.Fatal(err)
	}
	st := fs.Stats()
	if st.SummaryOnlyForces != before.SummaryOnlyForces || st.BlocksLogged-before.BlocksLogged < 2 {
		t.Fatalf("FlushFile logged %d blocks, %d summary-only forces",
			st.BlocksLogged-before.BlocksLogged, st.SummaryOnlyForces-before.SummaryOnlyForces)
	}
}

// TestHeldPatchedBlockLoggedFromDurableImage: a FlushCommit of a few changed
// bytes of a held page is one summary block. A running transaction then
// writes the page again, so it stays held. The cleaner, moving the page's
// last logged copy, and a checkpoint, which must log the page whole, each
// log its durable image: that copy with the patches laid over it — not the
// bare copy, which would drop the committed bytes, and not the buffer, which
// holds the running writer's.
func TestHeldPatchedBlockLoggedFromDurableImage(t *testing.T) {
	for _, by := range []string{"cleaner", "checkpoint"} {
		t.Run(by, func(t *testing.T) {
			fs, dev, clk := tinyFS(t)
			bs := fs.BlockSize()
			f, err := fs.Create("/db")
			if err != nil {
				t.Fatal(err)
			}
			for lbn := int64(0); lbn < 4; lbn++ {
				if _, err := f.WriteAt(stamped(bs, lbn, 1), lbn*int64(bs)); err != nil {
					t.Fatal(err)
				}
			}
			if err := fs.SetTxnProtected("/db", true); err != nil {
				t.Fatal(err)
			}
			// A second file's blocks seal the segment holding /db's, and
			// the checkpoint makes it a victim the cleaner may take.
			writeFile(t, fs, "/fill", make([]byte, int(fs.sb.SegmentBlocks)*bs))
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
			id := blockIDOf(Ino(f.ID()), 0)
			addr, err := fs.blockAddr(fs.inodes[Ino(f.ID())], 0)
			if err != nil || fs.segOf(addr) == fs.curSeg {
				t.Fatalf("block 0 at %d in segment %d, the current one (%v)", addr, fs.segOf(addr), err)
			}
			im := fileImage{version: versions(4, 1), blocks: 4}

			// Commit a few bytes of block 0, held as the embedded manager
			// holds its pages.
			if _, err := f.WriteAt([]byte("committed"), 100); err != nil {
				t.Fatal(err)
			}
			b := fs.pool.Lookup(id)
			fs.pool.SetHold(b, true)
			before := fs.Stats()
			if err := fs.FlushCommit([]CommitPage{{ID: id}}); err != nil {
				t.Fatal(err)
			}
			if st := fs.Stats(); st.BlocksLogged-before.BlocksLogged != 1 || st.SummaryOnlyForces-before.SummaryOnlyForces != 1 || !fs.Patched(id) {
				t.Fatalf("the commit logged %d blocks, %d summary-only forces, patched %v; want one summary block",
					st.BlocksLogged-before.BlocksLogged, st.SummaryOnlyForces-before.SummaryOnlyForces, fs.Patched(id))
			}
			im = im.edit(bs, 0, 100, []byte("committed"))
			// A running transaction writes the page again.
			if _, err := f.WriteAt([]byte("running"), 200); err != nil {
				t.Fatal(err)
			}

			if by == "cleaner" {
				fs.cleaning = true
				err = fs.cleanBatchLocked([]int64{fs.segOf(addr)})
				fs.cleaning = false
			} else {
				err = fs.Sync()
			}
			if err != nil {
				t.Fatal(err)
			}
			if moved, _ := fs.blockAddr(fs.inodes[Ino(f.ID())], 0); moved == addr || fs.Patched(id) || !b.Held() || !b.Dirty() {
				t.Fatalf("after the %s: block 0 at %d (was %d), patched %v, held %v, dirty %v; want logged whole, still held and dirty",
					by, moved, addr, fs.Patched(id), b.Held(), b.Dirty())
			}
			fs2, err := Mount(dev, clk, fs.opts) // a crash
			if err != nil {
				t.Fatal(err)
			}
			if err := im.matches(fs2, "/db"); err != nil {
				t.Fatalf("a crash after the %s: %v", by, err)
			}
		})
	}
}

// TestSummaryRejectsBadPatches: a patch whose range leaves its block, a
// patch count the block cannot hold, a record cut off by the block's end, an
// empty patch or a byte set after the last record make a block no summary.
func TestSummaryRejectsBadPatches(t *testing.T) {
	s := summary{Seq: 1, SelfAddr: 10, Entries: []summaryEntry{{Ino: 3, Kind: kindDelete}},
		Patches: []patch{{Ino: 2, LBN: 7, Off: 4000, Data: bytes.Repeat([]byte{9}, 96)}}}
	enc, err := encodeSummary(&s)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := decodeSummary(enc, 10)
	if !ok || len(got.Patches) != 1 || got.Patches[0].Off != 4000 || len(got.Patches[0].Data) != 96 {
		t.Fatalf("the valid summary decodes to %+v, %v", got.Patches, ok)
	}
	rec := summaryHeaderSize + summaryEntrySize // the patch record
	le := binary.LittleEndian
	for _, c := range []struct {
		name string
		edit func(b []byte)
	}{
		{"offset plus length past the block", func(b []byte) { le.PutUint16(b[rec+16:], 4001) }},
		{"empty patch", func(b []byte) { le.PutUint16(b[rec+18:], 0) }},
		{"length past the summary", func(b []byte) { le.PutUint16(b[rec+18:], 4000) }},
		{"patch count past the summary", func(b []byte) { le.PutUint32(b[40:], 1000) }},
		{"a second record cut off", func(b []byte) { le.PutUint32(b[40:], 2) }},
		{"sector count above the records", func(b []byte) { le.PutUint32(b[44:], 2) }},
		{"padding after the record", func(b []byte) { b[rec+patchHeaderSize+96] = 1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := bytes.Clone(enc)
			c.edit(b)
			sealSummary(b)
			if _, ok := decodeSummary(b, 10); ok {
				t.Fatal("decoded")
			}
		})
	}
	// The encoder refuses what the decoder would.
	for _, p := range []patch{{Off: 4090, Data: make([]byte, 7)}, {Off: 0}, {Data: make([]byte, patchRoom(4096, 0))}} {
		if _, err := encodeSummary(&summary{Patches: []patch{p}}); err == nil {
			t.Fatalf("patch at %d of %d bytes encoded", p.Off, len(p.Data))
		}
	}
}

// TestMountRefusesOldFormats: an image from before summaries carried
// patches (version 3), or from before a summary covered only its sectors
// (version 4), is refused with a version error, not misread.
func TestMountRefusesOldFormats(t *testing.T) {
	for _, version := range []int{3, 4} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			f, err := os.Open(fmt.Sprintf("testdata/lfsdump-v%d.img", version))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			clk := sim.NewClock()
			model := sim.RZ55Model()
			model.NumBlocks = seedImageMB << 20 / int64(model.BlockSize)
			dev, err := disk.LoadImage(model, clk, f)
			if err != nil {
				t.Fatal(err)
			}
			_, err = Mount(dev, clk, Options{})
			want := fmt.Sprintf("format version %d, want %d", version, formatVersion)
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
				t.Fatalf("Mount = %v, want %q", err, want)
			}
		})
	}
}

// TestCleanerSurvivesRecycledVictim: when a cleaning pass's relocation runs
// out of free segments, advanceSegmentLocked's fallback
// (freeDeadSegmentsLocked) frees the victims the relocation has emptied and
// the log head moves into one of them. The pass must neither re-check nor
// free such a victim again.
func TestCleanerSurvivesRecycledVictim(t *testing.T) {
	fs, dev, clk := tinyFS(t)
	bs := fs.BlockSize()
	f, err := fs.Create("/a")
	if err != nil {
		t.Fatal(err)
	}
	// Four segments of /a, then every eighth block rewritten: each of those
	// segments keeps most of its blocks live, a cheap enough victim.
	n := int64(4 * (fs.sb.SegmentBlocks - 4))
	for lbn := int64(0); lbn < n; lbn++ {
		if _, err := f.WriteAt(stamped(bs, lbn, 1), lbn*int64(bs)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	im := fileImage{version: versions(n, 1), blocks: n}
	for lbn := int64(0); lbn < n; lbn += 8 {
		if _, err := f.WriteAt(stamped(bs, lbn, 2), lbn*int64(bs)); err != nil {
			t.Fatal(err)
		}
		im.version[lbn] = 2
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Take all free segments but one out of play, as live data elsewhere
	// would: the relocation's second segment advance finds none free, by
	// which time it has emptied the first victim.
	var held []int64
	for s := range fs.segs {
		if fs.segs[s].State == segFree && fs.free > 1 {
			fs.segs[s].State, fs.segs[s].SeqStamp = segInLog, ^uint64(0)
			fs.free--
			held = append(held, int64(s))
		}
	}
	victims := fs.pickVictimsLocked(fs.sb.SegmentBlocks - minCleanGain)
	if len(victims) < 3 {
		t.Fatalf("victims %v: the relocation must need several segments", victims)
	}
	stamps := make([]uint64, len(victims))
	for i, v := range victims {
		stamps[i] = fs.segs[v].SeqStamp
	}
	fs.cleaning = true
	err = fs.cleanBatchLocked(victims)
	fs.cleaning = false
	if err != nil {
		t.Fatal(err)
	}
	recycled := 0
	for i, v := range victims {
		if fs.segs[v].State != segFree && fs.segs[v].SeqStamp != stamps[i] {
			recycled++
		}
	}
	if recycled == 0 {
		t.Fatalf("no victim was recycled mid-pass (states %v); the test needs the fallback", victimStates(fs, victims))
	}
	free := int64(0)
	for s := range fs.segs {
		if fs.segs[s].State == segFree {
			free++
		}
	}
	if fs.free != free {
		t.Fatalf("free count %d, but %d segments are free", fs.free, free)
	}
	for _, s := range held {
		fs.segs[s].State, fs.segs[s].SeqStamp = segFree, 0
		fs.free++
	}
	if _, _, diff, err := fs.AuditUsage(); err != nil || len(diff) != 0 {
		t.Fatalf("usage after the pass: %v %v", diff, err)
	}
	fs2, err := Mount(dev, clk, fs.opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := im.matches(fs2, "/a"); err != nil {
		t.Fatal(err)
	}
}

func victimStates(fs *FS, victims []int64) []segInfo {
	var out []segInfo
	for _, v := range victims {
		out = append(out, fs.segs[v])
	}
	return out
}
