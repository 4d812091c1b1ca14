package lfs

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/detsort"
)

// FsckReport summarizes a structural check of the file system.
type FsckReport struct {
	Files        int   // reachable regular files
	Dirs         int   // reachable directories
	Blocks       int64 // reachable data + pointer + pack blocks
	Problems     []string
	OrphanInodes []Ino // in the imap but unreachable from the root
}

// OK reports whether no problems were found.
func (r *FsckReport) OK() bool { return len(r.Problems) == 0 }

func (r *FsckReport) problemf(format string, args ...interface{}) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Fsck verifies the file system's structural invariants:
//
//   - every imap entry decodes to an inode with the right number in a valid
//     pack block;
//   - the directory tree is acyclic and every entry resolves;
//   - every inode in the imap is reachable from the root (no orphans);
//   - no two files claim the same disk block (no cross-linking);
//   - every referenced block address lies inside the segment area;
//   - file sizes are consistent with their block maps;
//   - the maintained segment usage table matches a full recount;
//   - every block whose newest bytes are in summary patches only has a copy
//     a checkpoint can log: dirty in the cache, or staged;
//   - the free-segment count is the number of free segments.
//
// It reads through the device (charging simulated time) but modifies
// nothing.
func (fs *FS) Fsck() (*FsckReport, error) {
	rep := &FsckReport{}

	// 1. Decode every imap entry.
	for ino, addr := range fs.imap {
		if s := fs.segOf(addr); s < 0 || s >= fs.sb.NumSegments {
			rep.problemf("inode %d: imap address %d outside the segment area", ino, addr)
			continue
		}
		if _, err := fs.loadInode(ino); err != nil {
			rep.problemf("inode %d: %v", ino, err)
		}
	}

	// 2. Walk the namespace from the root, checking reachability and
	// cycles.
	reachable := map[Ino]bool{}
	var walk func(ino Ino, path string, depth int) error
	walk = func(ino Ino, path string, depth int) error {
		if depth > 64 {
			rep.problemf("%s: directory tree deeper than 64 (cycle?)", path)
			return nil
		}
		if reachable[ino] {
			rep.problemf("%s: inode %d reached twice (hard link or cycle)", path, ino)
			return nil
		}
		reachable[ino] = true
		in, err := fs.loadInode(ino)
		if err != nil {
			rep.problemf("%s: %v", path, err)
			return nil
		}
		if !in.IsDir() {
			rep.Files++
			return nil
		}
		rep.Dirs++
		entries, err := fs.ReadDirLocked(in)
		if err != nil {
			rep.problemf("%s: unreadable directory: %v", path, err)
			return nil
		}
		seen := map[string]bool{}
		for _, e := range entries {
			if e.Name == "" {
				rep.problemf("%s: empty entry name", path)
				continue
			}
			if seen[e.Name] {
				rep.problemf("%s/%s: duplicate entry", path, e.Name)
				continue
			}
			seen[e.Name] = true
			if _, ok := fs.imap[Ino(e.Ino)]; !ok {
				rep.problemf("%s/%s: dangling entry (inode %d not in imap)", path, e.Name, e.Ino)
				continue
			}
			if err := walk(Ino(e.Ino), path+"/"+e.Name, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if _, ok := fs.imap[RootIno]; !ok {
		rep.problemf("no root directory in the imap")
	} else if err := walk(RootIno, "", 0); err != nil {
		return nil, err
	}

	// 3. Orphan inodes: in the imap but unreachable.
	for _, ino := range detsort.Keys(fs.imap) {
		if !reachable[ino] {
			rep.OrphanInodes = append(rep.OrphanInodes, ino)
			rep.problemf("inode %d: unreachable from the root", ino)
		}
	}

	// 4. Cross-link and bounds check over every block of every file.
	owner := map[int64]Ino{}
	for _, ino := range detsort.Keys(fs.imap) {
		in, err := fs.loadInode(ino)
		if err != nil {
			continue // reported above
		}
		var fileBlocks int64
		err = fs.forEachBlock(in, func(kind blockKind, index, addr int64) error {
			if s := fs.segOf(addr); s < 0 || s >= fs.sb.NumSegments {
				rep.problemf("inode %d: %v block at %d outside the segment area", ino, kind, addr)
				return nil
			}
			if prev, taken := owner[addr]; taken {
				rep.problemf("block %d cross-linked between inodes %d and %d", addr, prev, ino)
			} else {
				owner[addr] = ino
			}
			rep.Blocks++
			if kind == kindData {
				fileBlocks++
			}
			return nil
		})
		if err != nil {
			rep.problemf("inode %d: walk failed: %v", ino, err)
			continue
		}
		// Size consistency: mapped data blocks must fit within the size
		// (holes are fine; blocks past EOF are not).
		maxBlocks := (in.Size + int64(fs.blockSize) - 1) / int64(fs.blockSize)
		if fileBlocks > maxBlocks {
			rep.problemf("inode %d: %d data blocks mapped but size %d allows %d",
				ino, fileBlocks, in.Size, maxBlocks)
		}
	}
	// Pack blocks count once per distinct address.
	packSeen := map[int64]bool{}
	for ino, addr := range fs.imap {
		if packSeen[addr] {
			continue
		}
		packSeen[addr] = true
		rep.Blocks++
		if refs := fs.packRefs[addr]; refs <= 0 {
			rep.problemf("inode %d: pack block %d has non-positive refcount %d", ino, addr, refs)
		}
	}

	// 5. Patched blocks a checkpoint would have nothing to log for.
	for _, id := range detsort.KeysFunc(fs.patched, buffer.CompareBlockID) {
		b := fs.pool.Lookup(id)
		if _, staged := fs.stage.Lookup(id); !staged && (b == nil || !b.Dirty()) {
			rep.problemf("block %v: bytes in summary patches only, and neither dirty nor staged", id)
		}
	}

	// 6. The free count the cleaner steers by.
	var free int64
	for _, si := range fs.segs {
		if si.State == segFree {
			free++
		}
	}
	if free != fs.free {
		rep.problemf("free-segment count %d, but %d segments are free", fs.free, free)
	}

	// 7. Segment usage recount.
	if _, _, diff, err := fs.AuditUsage(); err != nil {
		rep.problemf("usage audit failed: %v", err)
	} else if len(diff) > 0 {
		rep.problemf("segment usage divergence in %d segments: %v", len(diff), diff)
	}
	return rep, nil
}
