package lfs

import "repro/internal/detsort"

// AuditUsage recomputes live block counts from the imap and compares them
// with the maintained segment usage table. Inode pack blocks are shared by
// several inodes and counted once. Used by tests and the lfsdump inspector
// to verify accounting invariants.
func (fs *FS) AuditUsage() (maintained, actual int64, perSegDiff map[int64][2]int64, err error) {
	actualLive := make([]int64, fs.sb.NumSegments)
	mark := func(addr int64) {
		if s := fs.segOf(addr); s >= 0 {
			actualLive[s]++
		}
	}
	packSeen := map[int64]bool{}
	for _, ino := range detsort.Keys(fs.imap) {
		if addr := fs.imap[ino]; !packSeen[addr] {
			packSeen[addr] = true
			mark(addr)
		}
		in, e := fs.loadInode(ino)
		if e != nil {
			return 0, 0, nil, e
		}
		e = fs.forEachBlock(in, func(kind blockKind, index, a int64) error {
			mark(a)
			return nil
		})
		if e != nil {
			return 0, 0, nil, e
		}
	}
	perSegDiff = map[int64][2]int64{}
	for s := int64(0); s < fs.sb.NumSegments; s++ {
		maintained += fs.segs[s].Live
		actual += actualLive[s]
		if fs.segs[s].Live != actualLive[s] {
			perSegDiff[s] = [2]int64{fs.segs[s].Live, actualLive[s]}
		}
	}
	return maintained, actual, perSegDiff, nil
}
