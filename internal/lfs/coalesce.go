package lfs

import (
	"repro/internal/vfs"
)

// Coalesce rewrites a file's data blocks in logical order at the head of
// the log, restoring sequential layout after random updates have strewn the
// file across segments. This is the enhancement §5.3/§5.4 of the paper
// proposes for the idle-period user-space cleaner: "since LFS already has a
// mechanism for rearranging the file system, namely the cleaner, it seems
// obvious that this mechanism should be used to coalesce files which become
// fragmented."
//
// The rewrite is just a relocation: every mapped block is staged (like
// cleaner copy-forward) and flushed in logical order, so consecutive logical
// blocks land on consecutive disk addresses. Reads and crash recovery are
// unaffected — the file's contents never change, only its layout.
func (fs *FS) Coalesce(path string) error {
	in, err := fs.LookupLocked(path)
	if err != nil {
		return err
	}
	if in.IsDir() {
		return vfs.ErrIsDir
	}
	bs := int64(fs.blockSize)
	nblocks := (in.Size + bs - 1) / bs

	// Stage every mapped block. Blocks already dirty in the cache (or
	// already parked) are current and will be rewritten by the flush anyway;
	// clean on-disk blocks are read and parked.
	for lbn := int64(0); lbn < nblocks; lbn++ {
		addr, err := fs.blockAddr(in, lbn)
		if err != nil {
			return err
		}
		id := blockIDOf(in.Ino, lbn)
		if _, parked := fs.stage.Lookup(id); parked {
			continue
		}
		if b := fs.pool.Lookup(id); b != nil && b.Dirty() {
			continue
		}
		if addr == 0 {
			continue // hole
		}
		// Neither dirty nor parked, the block has no bytes in patches: its
		// logged copy is its durable image.
		if err := fs.dev.Read(addr, fs.stage.Frame(id, true)); err != nil {
			fs.stage.Unpark(id)
			return err
		}
	}
	in.Dirty = true

	// Flush the staged blocks through the regular flush path (which sorts
	// by logical block number and invokes the cleaner if segments run
	// low), so the partial segments written here hold the file in logical
	// order — the post-coalesce layout is sequential.
	return fs.flushLocked(map[Ino]bool{in.Ino: true}, false)
}
