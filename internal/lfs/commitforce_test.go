package lfs

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/buffer"
	"repro/internal/detsort"
	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// Commit forces (File.Sync, FlushCommit) log data blocks and, only when an
// attribute changed, the inode; every other pointer is rebuilt by roll-forward
// from the summaries. These tests hold the two ends of that bargain together.

// stamped is a block whose content names its file position and version, so a
// read that returns the right bytes went through the right pointer.
func stamped(bs int, lbn int64, version int) []byte {
	b := make([]byte, bs)
	copy(b, fmt.Sprintf("lbn %d version %d;", lbn, version))
	for i := 32; i < bs; i++ {
		b[i] = byte(lbn) + byte(version)*31 + byte(i)
	}
	return b
}

// fileImage is the expected content of the test file: block versions by
// logical block number (absent = hole) and the size in blocks. A block a
// summary-only force changed in place holds edited, its whole content,
// instead of its version.
type fileImage struct {
	version map[int64]int
	edited  map[int64][]byte
	blocks  int64
}

func (im fileImage) clone() fileImage {
	return fileImage{version: maps.Clone(im.version), edited: maps.Clone(im.edited), blocks: im.blocks}
}

// edit returns the image with p written at byte off of logical block lbn,
// which must lie inside one block that exists.
func (im fileImage) edit(bs int, lbn int64, off int, p []byte) fileImage {
	b := bytes.Clone(im.edited[lbn])
	if v, ok := im.version[lbn]; b == nil && ok {
		b = stamped(bs, lbn, v)
	} else if b == nil {
		b = make([]byte, bs) // a hole
	}
	copy(b[off:], p)
	if im.edited == nil {
		im.edited = map[int64][]byte{}
	}
	im.edited[lbn] = b
	return im
}

// matches reports whether the file at path holds exactly im.
func (im fileImage) matches(fs *FS, path string) error {
	f, err := fs.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bs := int64(fs.BlockSize())
	if size, _ := f.Size(); size != im.blocks*bs {
		return fmt.Errorf("size %d, want %d blocks", size, im.blocks)
	}
	got, zero := make([]byte, bs), make([]byte, bs)
	check := func(lbn int64) error {
		if _, err := f.ReadAt(got, lbn*bs); err != nil {
			return err
		}
		want := zero
		if e, ok := im.edited[lbn]; ok {
			want = e
		} else if v, ok := im.version[lbn]; ok {
			want = stamped(int(bs), lbn, v)
		}
		if !bytes.Equal(got, want) {
			at := 0
			for got[at] == want[at] {
				at++
			}
			return fmt.Errorf("block %d holds %q, want version %d (0 = hole) or its edit: they differ from byte %d", lbn, got[:24], im.version[lbn], at)
		}
		return nil
	}
	// Every written block; for holes that must have stayed holes, every
	// block of a small file, else the direct range and both ends of each
	// pointer block.
	for lbn := range im.version {
		if err := check(lbn); err != nil {
			return err
		}
	}
	for lbn := range im.edited {
		if err := check(lbn); err != nil {
			return err
		}
	}
	for lbn := int64(0); lbn < im.blocks && im.blocks <= NDirect; lbn++ {
		if err := check(lbn); err != nil {
			return err
		}
	}
	np := nptr(fs.BlockSize())
	for _, lbn := range []int64{0, 1, 5, NDirect - 1, NDirect, NDirect + 1, NDirect + np - 1, NDirect + np, NDirect + np + 1, NDirect + 2*np} {
		if lbn < im.blocks {
			if err := check(lbn); err != nil {
				return err
			}
		}
	}
	return nil
}

// commitForceScript drives a file through commit forces that pack no inode
// (overwrites in the direct, single- and double-indirect ranges), one that
// does (the file grows), and more pack-less ones after it, checkpoints left
// to the file system. after(i) is called once force i is acknowledged with
// the image that must now be durable; the script stops at the first error.
func commitForceScript(fs *FS, after func(step int, im fileImage)) error {
	bs := fs.BlockSize()
	np := nptr(bs)
	f, err := fs.Create("/f")
	if err != nil {
		return err
	}
	defer f.Close()
	im := fileImage{version: map[int64]int{}}
	write := func(lbn int64, v int) error {
		if _, err := f.WriteAt(stamped(bs, lbn, v), lbn*int64(bs)); err != nil {
			return err
		}
		im.version[lbn] = v
		delete(im.edited, lbn)
		im.blocks = max(im.blocks, lbn+1)
		return nil
	}
	step := 0
	force := func() error {
		if err := f.Sync(); err != nil {
			return err
		}
		after(step, im.clone())
		step++
		return nil
	}
	// Lay the file out over all three pointer ranges and checkpoint.
	for _, lbn := range []int64{0, 1, 2, 3, NDirect - 1, NDirect, NDirect + 1, NDirect + 7, NDirect + np, NDirect + np + 1, NDirect + 2*np} {
		if err := write(lbn, 1); err != nil {
			return err
		}
	}
	if err := fs.Sync(); err != nil {
		return err
	}
	after(step, im.clone())
	step++
	for round := 2; round < 12; round++ {
		targets := []int64{int64(round) % 4, NDirect - 1, NDirect + int64(round)%2, NDirect + np + int64(round)%2}
		if round == 7 {
			targets = append(targets, 6, NDirect+np+5) // a hole filled inside the size: still no pack
		}
		if round == 8 {
			targets = append(targets, NDirect+2*np+1) // the file grows: this force packs the inode
		}
		for _, lbn := range targets {
			if err := write(lbn, round); err != nil {
				return err
			}
		}
		before := fs.Stats()
		if err := force(); err != nil {
			return err
		}
		st := fs.Stats()
		if got, grew := st.InodePackBlocks-before.InodePackBlocks, round == 8; st.Checkpoints == before.Checkpoints && (got != 0) != grew {
			return fmt.Errorf("round %d: commit force wrote %d inode packs (file grew: %v)", round, got, grew)
		}
	}
	// Summary-only forces: a few bytes in blocks of every pointer range, one
	// run across a block boundary, and (round 14) a block written whole in
	// between, which makes that force log blocks again.
	for round := 12; round < 18; round++ {
		edits := []struct {
			lbn int64
			off int
		}{{int64(round) % 4, 100 + round}, {NDirect + 1, 7 * round}, {NDirect + np + 1, bs - 3}, {NDirect + np + 2, 0}}
		for _, e := range edits {
			p := []byte(fmt.Sprintf("round %02d", round))
			if _, err := f.WriteAt(p, e.lbn*int64(bs)+int64(e.off)); err != nil {
				return err
			}
			for lbn, off := e.lbn, e.off; len(p) > 0; lbn, off = lbn+1, 0 {
				n := min(len(p), bs-off)
				im = im.edit(bs, lbn, off, p[:n])
				p = p[n:]
			}
		}
		if round == 14 {
			if err := write(2, round); err != nil {
				return err
			}
		}
		before := fs.Stats()
		if err := force(); err != nil {
			return err
		}
		if got, want := fs.Stats().SummaryOnlyForces-before.SummaryOnlyForces, int64(0); round != 14 && got == want {
			return fmt.Errorf("round %d: the force was not summary-only", round)
		}
	}
	return nil
}

// crashAtEveryWrite runs script once to record the image each acknowledged
// force promises, then again with the device crashing at each of its write
// operations, clean and torn. After each crash it remounts and requires the
// image of the last acknowledged force — or of the one in flight, whole, when
// the crash lost only its acknowledgement: size, every direct-, single- and
// double-indirect-range pointer (through the content it leads to) and holes.
// It returns the file system of the recording run.
func crashAtEveryWrite(t *testing.T, opts Options, script func(*FS, func(int, fileImage)) error) *FS {
	t.Helper()
	name := fmt.Sprintf("checkpoint-every %d", opts.CheckpointEvery)
	build := func() (*FS, *disk.Device, *sim.Clock) {
		clk := sim.NewClock()
		dev := disk.New(sim.SmallModel(), clk)
		fs, err := Format(dev, clk, opts)
		if err != nil {
			t.Fatal(err)
		}
		return fs, dev, clk
	}
	recorded, recDev, _ := build()
	ops0 := recDev.WriteOps()
	var images []fileImage
	if err := script(recorded, func(_ int, im fileImage) { images = append(images, im) }); err != nil {
		t.Fatal(err)
	}
	total := recDev.WriteOps() - ops0
	for op := int64(1); op <= total; op++ {
		for seed := uint64(0); seed < 4; seed++ { // 0 = clean cut, else a torn prefix
			fs, dev, clk := build()
			dev.CrashAfter(ops0+op, seed > 0, seed)
			acked := -1
			err := script(fs, func(step int, _ fileImage) { acked = step })
			if !errors.Is(err, disk.ErrCrashed) {
				t.Fatalf("%s, crash at op %d: script ended with %v", name, op, err)
			}
			dev.ClearCrash()
			fs2, err := Mount(dev, clk, opts)
			if err != nil {
				t.Fatalf("%s, crash at op %d seed %d: mount: %v", name, op, seed, err)
			}
			if acked < 0 {
				continue // crashed before the file's first checkpoint: nothing was promised
			}
			errAcked := images[acked].matches(fs2, "/f")
			if errAcked != nil && acked+1 < len(images) && images[acked+1].matches(fs2, "/f") == nil {
				errAcked = nil
			}
			if errAcked != nil {
				var next error
				if acked+1 < len(images) {
					next = images[acked+1].matches(fs2, "/f")
				}
				t.Fatalf("%s, crash at op %d seed %d after force %d: %v (against the force in flight: %v)", name, op, seed, acked, errAcked, next)
			}
			if rep, err := fs2.Fsck(); err != nil || !rep.OK() {
				t.Fatalf("%s, crash at op %d seed %d: fsck: %v %+v", name, op, seed, err, rep)
			}
		}
	}
	return recorded
}

// TestCommitForceCrashAtEveryWrite crashes commitForceScript at every write.
func TestCommitForceCrashAtEveryWrite(t *testing.T) {
	for _, every := range []int{0, 5} { // default, and a checkpoint every 5 partials
		fs := crashAtEveryWrite(t, Options{CheckpointEvery: every}, commitForceScript)
		if cps := fs.Stats().Checkpoints; (every == 0) != (cps == 2) {
			t.Fatalf("checkpoint-every %d: %d checkpoints; want Format's and the script's only at the default, periodic ones otherwise", every, cps)
		}
	}
}

// truncateRegrowScript logs indirect-range blocks by pack-less commit forces,
// shrinks the file below them, forces, regrows it sparsely past them and
// forces pack-less overwrites after that. The positions the truncate emptied
// are holes below the final size, and summary entries older than the truncate
// still name blocks there; only the pointer blocks the truncate's force wrote
// say they are gone. A long sparse file in the indirect range is what a
// preallocated WAL segment on LFS is, and WAL recovery truncates.
func truncateRegrowScript(fs *FS, after func(step int, im fileImage)) error {
	bs := fs.BlockSize()
	np := nptr(bs)
	f, err := fs.Create("/f")
	if err != nil {
		return err
	}
	defer f.Close()
	im := fileImage{version: map[int64]int{}}
	write := func(lbn int64, v int) error {
		if _, err := f.WriteAt(stamped(bs, lbn, v), lbn*int64(bs)); err != nil {
			return err
		}
		im.version[lbn] = v
		im.blocks = max(im.blocks, lbn+1)
		return nil
	}
	step := 0
	force := func() error {
		if err := f.Sync(); err != nil {
			return err
		}
		after(step, im.clone())
		step++
		return nil
	}
	for _, lbn := range []int64{0, 1, NDirect, NDirect + 1, NDirect + np - 1, NDirect + np, NDirect + np + 1, NDirect + 2*np} {
		if err := write(lbn, 1); err != nil {
			return err
		}
	}
	if err := fs.Sync(); err != nil {
		return err
	}
	after(step, im.clone())
	step++
	for _, lbn := range []int64{NDirect + 1, NDirect + np + 1} { // pack-less: summary entries only
		if err := write(lbn, 2); err != nil {
			return err
		}
	}
	if err := force(); err != nil {
		return err
	}
	if err := f.Truncate(int64(bs)); err != nil {
		return err
	}
	im = fileImage{version: map[int64]int{0: im.version[0]}, blocks: 1}
	if err := force(); err != nil {
		return err
	}
	if err := write(NDirect+2*np+1, 3); err != nil { // every position the truncate emptied is a hole now
		return err
	}
	if err := force(); err != nil {
		return err
	}
	for _, lbn := range []int64{0, NDirect + 2*np + 1} { // and pack-less forces after the last pack still replay
		if err := write(lbn, 4); err != nil {
			return err
		}
	}
	return force()
}

// TestTruncateRegrowDoesNotResurrectIndirectBlocks crashes truncateRegrowScript
// at every write: no recovered image may bring back a single- or
// double-indirect-range block the truncate freed.
func TestTruncateRegrowDoesNotResurrectIndirectBlocks(t *testing.T) {
	for _, every := range []int{0, 5} {
		crashAtEveryWrite(t, Options{CheckpointEvery: every}, truncateRegrowScript)
	}
}

// TestTruncateRegrowDoesNotResurrectDirectBlock: a direct-range block is
// logged by a pack-less commit force, the file is truncated to zero and
// regrown sparsely so that block's position is a hole below the new size. The
// packs the truncate and the regrow forced are newer than the block's summary
// entry and say "no block there"; roll-forward must not replay the entry over
// them and put the dead block back.
func TestTruncateRegrowDoesNotResurrectDirectBlock(t *testing.T) {
	fs, dev, clk := newFS(t)
	bs := fs.BlockSize()
	f, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	write := func(lbn int64, v int) {
		if _, err := f.WriteAt(stamped(bs, lbn, v), lbn*int64(bs)); err != nil {
			t.Fatal(err)
		}
	}
	force := func() {
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	for lbn := int64(0); lbn < 6; lbn++ {
		write(lbn, 1)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	packs := fs.Stats().InodePackBlocks
	write(3, 2)
	force() // pack-less: the summary entry is the only record of block 3's new home
	if got := fs.Stats().InodePackBlocks - packs; got != 0 {
		t.Fatalf("overwrite force wrote %d inode packs", got)
	}
	if err := f.Truncate(0); err != nil {
		t.Fatal(err)
	}
	force()
	write(5, 3) // blocks 0–4 are holes now
	force()
	write(1, 4) // and a pack-less force after the last pack must still be replayed
	force()

	fs2, err := Mount(dev, clk, fs.opts) // crash: no unmount
	if err != nil {
		t.Fatal(err)
	}
	want := fileImage{version: map[int64]int{1: 4, 5: 3}, blocks: 6}
	if err := want.matches(fs2, "/f"); err != nil {
		t.Fatal(err)
	}
	if rep, err := fs2.Fsck(); err != nil || !rep.OK() {
		t.Fatalf("fsck: %v %+v", err, rep)
	}
}

// chainScript commits group-commit batches of a transaction-protected file
// whose patches outgrow one summary block, so each FlushCommit is a chain of
// summary-only partials: ten pages' edits; then, after a truncate that clears
// single- and double-indirect pointers, a page rewritten whole (its diff
// outgrows a summary, so no delta is known) beside an edited one, which logs
// the file's pointer blocks and inode in the chain; then two pages a running
// transaction has written since they pre-committed, forced from their
// committed images — one with a known delta, one rewritten whole — and the
// running writer's own commit, which is one summary since both pages kept a
// delta; then ten pages again. Pages are held during their force, as the
// embedded manager holds them. Every force logs nothing but summaries, inode
// packs and pointer blocks, all in the foreground, unless it checkpointed.
func chainScript(fs *FS, after func(int, fileImage)) error {
	bs := fs.BlockSize()
	np := nptr(bs)
	f, err := fs.Create("/f")
	if err != nil {
		return err
	}
	defer f.Close()
	ino := Ino(f.ID())
	im := fileImage{version: map[int64]int{}}
	write := func(lbn int64, v int) error {
		if _, err := f.WriteAt(stamped(bs, lbn, v), lbn*int64(bs)); err != nil {
			return err
		}
		im.version[lbn] = v
		delete(im.edited, lbn)
		im.blocks = max(im.blocks, lbn+1)
		return nil
	}
	for lbn := int64(0); lbn < 16; lbn++ {
		if err := write(lbn, 1); err != nil {
			return err
		}
	}
	for _, lbn := range []int64{NDirect + np, NDirect + np + 1} {
		if err := write(lbn, 1); err != nil {
			return err
		}
	}
	if err := fs.SetTxnProtected("/f", true); err != nil {
		return err
	}
	if err := fs.Sync(); err != nil {
		return err
	}
	step := 0
	after(step, im.clone())
	step++
	edit := func(lbn int64, off int, p []byte) error {
		if _, err := f.WriteAt(p, lbn*int64(bs)+int64(off)); err != nil {
			return err
		}
		im = im.edit(bs, lbn, off, p)
		return nil
	}
	// commit forces pages as one batch and checks that it was one
	// summary-only force of want partials, with pointer blocks only when ptrs,
	// that logged nothing else, all in the foreground, and that carried
	// exactly the pages listed in whole whole.
	commit := func(pages []CommitPage, want int64, ptrs bool, whole ...int64) error {
		var held []*buffer.Buf
		for _, cp := range pages {
			if b := fs.pool.Lookup(cp.ID); b != nil && !b.Held() {
				fs.pool.SetHold(b, true)
				held = append(held, b)
			}
		}
		before, written := fs.Stats(), fs.dev.Stats().BlocksWrit
		if err := fs.FlushCommit(pages); err != nil {
			return err
		}
		for _, b := range held {
			fs.pool.SetHold(b, false)
		}
		st := fs.Stats()
		partials := st.PartialSegments - before.PartialSegments
		if st.SummaryOnlyForces != before.SummaryOnlyForces+1 || st.FullForceCauses != before.FullForceCauses {
			return fmt.Errorf("force %d was not one summary-only force", step)
		}
		if st.Checkpoints == before.Checkpoints {
			meta := st.InodePackBlocks - before.InodePackBlocks + st.PointerBlocks - before.PointerBlocks
			written = fs.dev.Stats().BlocksWrit - written
			if partials != want || written != partials+meta || st.WriteBehind != before.WriteBehind {
				return fmt.Errorf("force %d: %d partials, %d blocks, %v behind; want %d partials and only their summaries, packs and pointer blocks, in the foreground",
					step, partials, written, st.WriteBehind.Busy-before.WriteBehind.Busy, want)
			}
			if (st.PointerBlocks > before.PointerBlocks) != ptrs {
				return fmt.Errorf("force %d wrote %d pointer blocks (a truncate cleared pointers: %v)", step, st.PointerBlocks-before.PointerBlocks, ptrs)
			}
			for _, cp := range pages {
				kept := fs.patched[cp.ID]
				if got := len(kept) > 0 && len(kept[len(kept)-1].Data) == bs; got != slices.Contains(whole, cp.ID.Block) {
					return fmt.Errorf("force %d: block %d carried whole: %v", step, cp.ID.Block, got)
				}
			}
		}
		after(step, im.clone())
		step++
		return nil
	}
	round := func(r int) error {
		var pages []CommitPage
		for lbn := int64(0); lbn < 10; lbn++ {
			if err := edit(lbn, 100+10*r, pattern(500, byte(r))); err != nil {
				return err
			}
			pages = append(pages, CommitPage{ID: blockIDOf(ino, lbn)})
		}
		return commit(pages, 2, false)
	}
	if err := round(1); err != nil {
		return err
	}

	if err := f.Truncate((NDirect + 2) * int64(bs)); err != nil {
		return err
	}
	for lbn := range im.version {
		if lbn >= NDirect+2 {
			delete(im.version, lbn)
		}
	}
	im.blocks = NDirect + 2
	if err := write(10, 2); err != nil {
		return err
	}
	if err := edit(3, 2000, []byte("beside a whole page")); err != nil {
		return err
	}
	if err := commit([]CommitPage{{ID: blockIDOf(ino, 3)}, {ID: blockIDOf(ino, 10)}}, 2, true, 10); err != nil {
		return err
	}

	// A running writer's pages: 0 with a known delta, 11 rewritten whole.
	b0, b11 := fs.pool.Lookup(blockIDOf(ino, 0)), fs.pool.Lookup(blockIDOf(ino, 11))
	if err := edit(0, 300, []byte("committed")); err != nil {
		return err
	}
	if err := write(11, 3); err != nil {
		return err
	}
	if b0 == nil || b11 == nil {
		return fmt.Errorf("blocks 0 and 11 are not cached")
	}
	fs.pool.SetHold(b0, true)
	fs.pool.SetHold(b11, true)
	img0, img11 := bytes.Clone(b0.Data), bytes.Clone(b11.Data)
	for _, lbn := range []int64{0, 11} {
		if _, err := f.WriteAt([]byte("running"), lbn*int64(bs)+600); err != nil {
			return err
		}
	}
	if err := commit([]CommitPage{{ID: b0.ID, Image: img0}, {ID: b11.ID, Image: img11}}, 2, false, 11); err != nil {
		return err
	}
	for _, lbn := range []int64{0, 11} {
		if err := edit(lbn, 600, []byte("running")); err != nil {
			return err
		}
	}
	if err := commit([]CommitPage{{ID: b0.ID}, {ID: b11.ID}}, 1, false); err != nil {
		return err
	}
	fs.pool.SetHold(b0, false)
	fs.pool.SetHold(b11, false)
	return round(2)
}

// TestChainedCommitForceIsAllOrNothing crashes chainScript at every write,
// clean and torn: each recovered file is the last acknowledged batch's image,
// or the one in flight whole — never a prefix of a chain. With a checkpoint
// every 4 partials the checkpoints' patched blocks go behind; without, nothing
// is written behind.
func TestChainedCommitForceIsAllOrNothing(t *testing.T) {
	for _, every := range []int{0, 4} {
		fs := crashAtEveryWrite(t, Options{CheckpointEvery: every}, chainScript)
		if st := fs.Stats(); (st.WriteBehind.Busy != 0) != (every != 0) {
			t.Fatalf("checkpoint-every %d: write-behind busy %v; want it only for checkpoints", every, st.WriteBehind.Busy)
		}
	}
}

// holeScript commits whole-block writes the pool takes without a fetch and
// checks which of them are measured against zeros (a hole: the batch carries
// the written bytes that are not zero) and which are carried whole. Holes:
// blocks past the end of file in the single- and the double-indirect range,
// and two past it written by one call. Not holes: a block below the end in
// the double-indirect range, whose pointers are not inspected, and, after a
// truncate whose cleared pointers are not logged yet, blocks past the new end
// in the direct and the double-indirect range, which the log still maps.
func holeScript(fs *FS, after func(int, fileImage)) error {
	bs := fs.BlockSize()
	np := nptr(bs)
	f, err := fs.Create("/f")
	if err != nil {
		return err
	}
	defer f.Close()
	ino := Ino(f.ID())
	im := fileImage{version: map[int64]int{}}
	for _, lbn := range []int64{0, 1, 5, NDirect, NDirect + 8, NDirect + np + 5} {
		if _, err := f.WriteAt(stamped(bs, lbn, 1), lbn*int64(bs)); err != nil {
			return err
		}
		im.version[lbn] = 1
	}
	im.blocks = NDirect + np + 6
	if err := fs.SetTxnProtected("/f", true); err != nil {
		return err
	}
	if err := fs.Sync(); err != nil {
		return err
	}
	step := 0
	after(step, im.clone())
	step++
	sparse := func(lbn int64) []byte {
		b := make([]byte, bs)
		copy(b[100:], fmt.Sprintf("block %d", lbn))
		copy(b[3000:], "sparse")
		return b
	}
	// commit writes sparse blocks, a run of consecutive ones in one call, and
	// forces them as one batch: whole, or measured against zeros.
	commit := func(whole bool, lbns ...int64) error {
		var pages []CommitPage
		want := int64(0)
		for i, lbn := range lbns {
			pages = append(pages, CommitPage{ID: blockIDOf(ino, lbn)})
			im = im.edit(bs, lbn, 0, sparse(lbn))
			im.blocks = max(im.blocks, lbn+1)
			if want += int64(bs); !whole {
				want += int64(len(fmt.Sprintf("block %d", lbn)+"sparse") - bs)
			}
			if i > 0 && lbns[i-1] == lbn-1 {
				continue
			}
			var p []byte
			for j := i; j < len(lbns) && lbns[j] == lbn+int64(j-i); j++ {
				p = append(p, sparse(lbns[j])...)
			}
			if _, err := f.WriteAt(p, lbn*int64(bs)); err != nil {
				return err
			}
		}
		before := fs.Stats()
		if err := fs.FlushCommit(pages); err != nil {
			return err
		}
		st := fs.Stats()
		if st.SummaryOnlyForces != before.SummaryOnlyForces+1 {
			return fmt.Errorf("force %d was not summary-only", step)
		}
		if got := st.PatchBytes - before.PatchBytes; got != want {
			return fmt.Errorf("force %d of blocks %v carried %d bytes, want %d (whole: %v)", step, lbns, got, want, whole)
		}
		after(step, im.clone())
		step++
		return nil
	}
	// The truncate clears pointers in all three ranges; the batch logs them.
	if err := f.Truncate(2 * int64(bs)); err != nil {
		return err
	}
	im = fileImage{version: map[int64]int{0: 1, 1: 1}, blocks: 2}
	if err := commit(true, 5, NDirect+np+5); err != nil {
		return err
	}
	// This truncate frees a patched block, so it checkpoints: every pointer
	// it cleared is logged.
	if err := f.Truncate((NDirect + 1) * int64(bs)); err != nil {
		return err
	}
	delete(im.edited, NDirect+np+5)
	im.blocks = NDirect + 1
	if err := fs.Sync(); err != nil {
		return err
	}
	after(step, im.clone())
	step++
	for _, c := range []struct {
		whole bool
		lbns  []int64
	}{
		{false, []int64{NDirect + 12}},                         // past the end, single indirect
		{false, []int64{NDirect + np + 3}},                     // past the end, double indirect
		{true, []int64{NDirect + np + 1}},                      // below the end, double indirect
		{false, []int64{NDirect + np + 10, NDirect + np + 11}}, // two past the end in one write
	} {
		if err := commit(c.whole, c.lbns...); err != nil {
			return err
		}
	}
	return nil
}

// TestFreshBlocksPastTheEndAreHoles crashes holeScript at every write, clean
// and torn: every batch, whether carried whole or measured against zeros,
// recovers whole or not at all.
func TestFreshBlocksPastTheEndAreHoles(t *testing.T) {
	for _, every := range []int{0, 3} {
		crashAtEveryWrite(t, Options{CheckpointEvery: every}, holeScript)
	}
}

// TestCleanerRelocatesStalePack: a segment's only live block is an inode pack
// that commit forces have since left behind — the imap still points at it, the
// in-memory inode has newer block addresses. Cleaning the segment must write
// the inode as it is now, not carry the stale bytes forward, and a crash right
// after must recover the newer blocks.
func TestCleanerRelocatesStalePack(t *testing.T) {
	fs, dev, clk := tinyFS(t)
	bs := fs.BlockSize()
	open := func(path string) vfs.File {
		f, err := fs.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	write := func(f vfs.File, lbn int64, v int) {
		if _, err := f.WriteAt(stamped(bs, lbn, v), lbn*int64(bs)); err != nil {
			t.Fatal(err)
		}
	}
	force := func(f vfs.File) {
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	a, filler := open("/a"), open("/filler")
	write(a, 0, 1)
	for lbn := int64(0); lbn < 8; lbn++ {
		write(filler, lbn, 1)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	churn := func(v int) { // 9 blocks of log, all of it dead after the next call
		for lbn := int64(0); lbn < 8; lbn++ {
			write(filler, lbn, v)
		}
		force(filler)
	}
	// Move the log head into a fresh segment, then let /a grow there: the
	// commit force packs its inode (alone) into that segment.
	v := 2
	for start := fs.curSeg; fs.curSeg == start; v++ {
		churn(v)
	}
	victim := fs.curSeg
	write(a, 0, 2)
	write(a, 1, 2)
	force(a)
	packAddr := fs.imap[Ino(a.ID())]
	if fs.segOf(packAddr) != victim {
		t.Fatalf("/a's pack went to segment %d, want %d", fs.segOf(packAddr), victim)
	}
	// Fill the rest of the victim and move on, then checkpoint: the victim
	// becomes cleanable, the filler's inode is repacked at the new log head,
	// and /a's, clean since its force, stays where it is.
	for fs.curSeg == victim {
		churn(v)
		v++
	}
	churn(v)
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Overwrite /a's blocks by a pack-less commit force: its pack is now the
	// victim's only live block, and stale.
	packs := fs.Stats().InodePackBlocks
	write(a, 0, 3)
	write(a, 1, 3)
	force(a)
	if fs.Stats().InodePackBlocks != packs || fs.imap[Ino(a.ID())] != packAddr {
		t.Fatal("the overwrite force packed /a's inode; the scenario needs it deferred")
	}
	if live := fs.segs[victim].Live; live != 1 {
		t.Fatalf("victim segment %d has %d live blocks, want only the pack", victim, live)
	}

	for i := 0; fs.segs[victim].State != segFree; i++ {
		if ok, err := cleanOnce(fs); err != nil || !ok || i > 8 {
			t.Fatalf("cleaning pass %d: reclaimed=%v err=%v, victim still %d live", i, ok, err, fs.segs[victim].Live)
		}
	}
	if fs.imap[Ino(a.ID())] == packAddr {
		t.Fatal("imap still points into the cleaned segment")
	}
	if _, _, diff, err := fs.AuditUsage(); err != nil || len(diff) != 0 {
		t.Fatalf("usage after cleaning: %v %v", diff, err)
	}
	fs2, err := Mount(dev, clk, fs.opts) // crash: no unmount
	if err != nil {
		t.Fatal(err)
	}
	want := fileImage{version: map[int64]int{0: 3, 1: 3}, blocks: 2}
	if err := want.matches(fs2, "/a"); err != nil {
		t.Fatalf("after cleaning and a crash: %v", err)
	}
}

// TestCommitForceCostIsExact: the room check before a partial is written
// trusts chunkLen's count, and an overcount wastes segment tails as surely as
// an undercount overruns them. Over 1,000 random rounds — overwrites in every
// pointer range, growth, truncation, new files, several files at once — each
// round forces its files either by File.Sync's full path (flushLocked with
// pointers deferred), which logs one partial of exactly the blocks chunkLen
// counts over the gathered work, or by FlushCommit, whose chain of summaries
// logs each partial's files in exactly the blocks chunkLen counts for them
// and then summaries alone, all in the foreground. Every tenth round a
// File.Sync of a few changed bytes comes first; when it is summary-only it
// logs exactly one block.
func TestCommitForceCostIsExact(t *testing.T) {
	clk := sim.NewClock()
	model := sim.SmallModel()
	model.NumBlocks = 1 << 16 // room for the whole run: the cleaner would log blocks of its own
	dev := disk.New(model, clk)
	fs, err := Format(dev, clk, Options{CheckpointEvery: 1 << 30}) // so would a periodic checkpoint
	if err != nil {
		t.Fatal(err)
	}
	runs := writeRuns(fs)
	bs := fs.BlockSize()
	np := nptr(bs)
	rng := sim.NewRNG(17)
	var files []vfs.File
	create := func() {
		f, err := fs.Create(fmt.Sprintf("/f%d", len(files)))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	for i := 0; i < 3; i++ {
		create()
	}
	// Block 0 of every file is written only as a commit page (an image handed
	// to FlushCommit, which takes its file set from its pages); everything
	// else goes through the cache.
	ranges := []int64{1, NDirect, NDirect + np, NDirect + 3*np}
	var packless, packed, withPtrs, summaryOnly, chains int
	var truncCheckpoints int64
	for i := 0; i < 1000; i++ {
		if rng.Intn(100) == 0 && len(files) < 12 {
			create() // a new inode has no imap entry: its first force must pack it
		}
		if i%10 == 0 {
			f := files[rng.Intn(len(files))]
			if size, _ := f.Size(); size > int64(bs) {
				if _, err := f.WriteAt([]byte(fmt.Sprintf("force %d", i)), int64(rng.Intn(int(size-16)))); err != nil {
					t.Fatal(err)
				}
			}
			before := fs.Stats()
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			if st := fs.Stats(); st.SummaryOnlyForces > before.SummaryOnlyForces {
				if got := st.BlocksLogged - before.BlocksLogged; got != 1 {
					t.Fatalf("summary-only force %d logged %d blocks", i, got)
				}
				summaryOnly++
			}
		}
		set := map[Ino]bool{}
		var pages []CommitPage
		for n := 1 + rng.Intn(3); n > 0; n-- {
			f := files[rng.Intn(len(files))]
			switch rng.Intn(20) {
			case 0:
				size, _ := f.Size()
				cps := fs.Stats().Checkpoints // a truncate of patched blocks checkpoints
				if err := f.Truncate(max(int64(bs), size/int64(1+rng.Intn(3)))); err != nil {
					t.Fatal(err)
				}
				truncCheckpoints += fs.Stats().Checkpoints - cps
			default:
				for w := 1 + rng.Intn(4); w > 0; w-- {
					lbn := ranges[rng.Intn(len(ranges))] + int64(rng.Intn(6))
					if _, err := f.WriteAt(stamped(bs, lbn, i), lbn*int64(bs)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if !set[Ino(f.ID())] {
				set[Ino(f.ID())] = true
				pages = append(pages, CommitPage{ID: blockIDOf(Ino(f.ID()), 0), Image: stamped(bs, 0, i)})
			}
		}
		cleared := false // a shrinking truncate: this force writes pointer blocks
		for ino := range set {
			cleared = cleared || fs.inodes[ino].ptrsCleared
		}
		before := fs.Stats()
		*runs = (*runs)[:0]
		var want []int64 // each partial's blocks, as chunkLen counts them
		count := func(items []dataItem, files []Ino, budget int) (n, nf int) {
			n, nf, blocks, err := fs.chunkLen(items, files, true, budget)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, int64(blocks))
			return n, nf
		}
		if i%2 == 0 {
			items, metaOnly := fs.gatherLocked(set, true)
			if len(items)+len(metaOnly) > 0 {
				if n, nf := count(items, metaOnly, fs.partialBudget()); n+nf != len(items)+len(metaOnly) {
					t.Fatalf("flush %d: %d data items and %d meta-only files do not fit one partial", i, len(items), len(metaOnly))
				}
			}
			if err := fs.flushLocked(set, true); err != nil {
				t.Fatalf("flush %d: %v", i, err)
			}
		} else {
			plan, refused, err := fs.planForceLocked(set, pages)
			if err != nil || refused != nil {
				t.Fatalf("force %d: a batch was refused (%v)", i, err)
			}
			for files := plan.files; len(files) > 0; {
				_, nf := count(nil, files, fs.partialBudget())
				files = files[nf:]
			}
			if err := fs.FlushCommit(pages); err != nil {
				t.Fatalf("force %d: %v", i, err)
			}
			st := fs.Stats()
			partials := st.PartialSegments - before.PartialSegments
			for int64(len(want)) < partials {
				want = append(want, 1) // patches only: the summary
			}
			if st.SummaryOnlyForces != before.SummaryOnlyForces+1 || st.PatchBytes-before.PatchBytes != int64(len(pages)*bs) {
				t.Fatalf("force %d: %d summary-only forces carrying %d bytes, want one carrying the %d pages whole",
					i, st.SummaryOnlyForces-before.SummaryOnlyForces, st.PatchBytes-before.PatchBytes, len(pages))
			}
			if partials > 1 {
				chains++
			}
		}
		if !slices.Equal(*runs, want) {
			t.Fatalf("round %d logged partials of %v blocks, counted %v", i, *runs, want)
		}
		st := fs.Stats()
		if st.WriteBehind != before.WriteBehind {
			t.Fatalf("round %d put %v on the background lane", i, st.WriteBehind.Busy-before.WriteBehind.Busy)
		}
		if wrote := st.PointerBlocks - before.PointerBlocks; (wrote != 0) != cleared {
			t.Fatalf("round %d wrote %d pointer blocks (after a truncate that cleared pointers: %v)", i, wrote, cleared)
		}
		if cleared {
			withPtrs++
		}
		if st.InodePackBlocks == before.InodePackBlocks {
			packless++
		} else {
			packed++
		}
	}
	if st := fs.Stats(); st.Cleaner.Runs != 0 || st.Checkpoints != 1+truncCheckpoints {
		t.Fatalf("cleaner ran %d times, %d checkpoints: their blocks are in the comparison", st.Cleaner.Runs, st.Checkpoints)
	}
	if packless < 300 || packed < 100 || withPtrs < 10 || summaryOnly < 20 || chains < 300 {
		t.Fatalf("%d pack-less, %d packing rounds, %d with pointer blocks, %d summary-only File.Syncs, %d chains: the run should exercise all five",
			packless, packed, withPtrs, summaryOnly, chains)
	}
	if rep, err := fs.Fsck(); err != nil || !rep.OK() {
		t.Fatalf("fsck: %v %+v", err, rep)
	}
}

// TestMountLoadsEveryIndirectBlock pins the invariant knownHoleLocked rests
// on: after Mount, every inode is loaded, and one with a single indirect
// block on the log has it loaded too.
func TestMountLoadsEveryIndirectBlock(t *testing.T) {
	fs, _, _ := newFS(t)
	bs := fs.BlockSize()
	writeFile(t, fs, "/small", pattern(3*bs, 1))
	writeFile(t, fs, "/big", pattern((NDirect+5)*bs, 2))
	writeFile(t, fs, "/sparse", nil)
	f, err := fs.Open("/sparse")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(pattern(bs, 3), int64(NDirect+40)*int64(bs)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs = remount(t, fs)
	if len(fs.inodes) != len(fs.imap) {
		t.Fatalf("Mount loaded %d of %d inodes", len(fs.inodes), len(fs.imap))
	}
	withInd := 0
	for _, ino := range detsort.Keys(fs.inodes) {
		in := fs.inodes[ino]
		if in.indAddr == 0 {
			continue
		}
		withInd++
		if in.ind == nil || in.ind.addr != in.indAddr {
			t.Errorf("inode %d: indirect block at %d not loaded after Mount", ino, in.indAddr)
		}
	}
	if withInd != 2 {
		t.Fatalf("%d inodes have an indirect block on the log, want /big's and /sparse's", withInd)
	}
}
