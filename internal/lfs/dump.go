package lfs

import (
	"fmt"
	"io"

	"repro/internal/detsort"
	"repro/internal/disk"
)

// Dump writes a human-readable description of the file system's on-disk and
// in-memory structure: superblock geometry, log position, segment usage
// table, the partial segments at the log head, inode map, and cleaner
// statistics. Used by the lfsdump inspector.
func (fs *FS) Dump(w io.Writer) error {

	fmt.Fprintf(w, "superblock: %d blocks × %d B, %d segments × %d blocks, segments start at %d\n",
		fs.sb.TotalBlocks, fs.sb.BlockSize, fs.sb.NumSegments, fs.sb.SegmentBlocks, fs.sb.SegStart)
	fmt.Fprintf(w, "log head: segment %d offset %d (next %d), seq %d, checkpoint seq %d (boundary %d)\n",
		fs.curSeg, fs.curOff, fs.nextSeg, fs.seq, fs.cpSeq, fs.cpBound)
	fmt.Fprintf(w, "free segments: %d/%d\n", fs.free, fs.sb.NumSegments)

	fmt.Fprintf(w, "\nsegment usage (state live/cap @seq):\n")
	stateNames := map[segState]string{segFree: "free", segInLog: "log ", segCurrent: "cur ", segReserved: "rsvd"}
	for s := int64(0); s < fs.sb.NumSegments; s++ {
		info := fs.segs[s]
		if info.State == segFree && info.Live == 0 && info.SeqStamp == 0 {
			continue
		}
		fmt.Fprintf(w, "  seg %4d: %s %4d/%4d @%d\n", s, stateNames[info.State], info.Live, fs.sb.SegmentBlocks, info.SeqStamp)
	}

	// The partial segments of the segment being filled, by what each one
	// carries: a commit force that packed no inode shows as such, a
	// summary-only one with its patch records.
	sums, _, err := fs.readSummariesLocked(fs.curSeg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nlog head segment %d (partial @address seq, summary sectors: blocks):\n", fs.curSeg)
	for _, sum := range sums {
		if sum.SelfAddr >= fs.segBase(fs.curSeg)+fs.curOff {
			break // left over from the segment's previous life
		}
		kinds := countKinds(sum.Entries)
		fmt.Fprintf(w, "  @%-8d seq %d, %d/%d sectors: %d data, %d pointer, ", sum.SelfAddr, sum.Seq,
			sum.sectors(), fs.blockSize/disk.SectorSize, kinds[kindData], kinds[kindInd]+kinds[kindDInd]+kinds[kindDChild])
		if kinds[kindInodePack] == 0 {
			fmt.Fprintf(w, "no inode pack (pointers rebuilt from the summary)")
		} else {
			var inodes int64
			for _, e := range sum.Entries {
				if e.Kind == kindInodePack {
					inodes += e.Index
				}
			}
			fmt.Fprintf(w, "%d inode pack (%d inodes)", kinds[kindInodePack], inodes)
		}
		if kinds[kindDelete] > 0 {
			fmt.Fprintf(w, ", %d deletion records", kinds[kindDelete])
		}
		if sum.Flags&sumFlagCont != 0 {
			fmt.Fprintf(w, ", batch continues")
		}
		if len(sum.Patches) > 0 {
			fmt.Fprintf(w, ", %d patches (summary-only)", len(sum.Patches))
		}
		fmt.Fprintln(w)
		for _, p := range sum.Patches {
			fmt.Fprintf(w, "    patch: ino %d lbn %d offset %d length %d\n", p.Ino, p.LBN, p.Off, len(p.Data))
		}
	}

	fmt.Fprintf(w, "\ninode map (%d files):\n", len(fs.imap))
	for _, ino := range detsort.Keys(fs.imap) {
		in, err := fs.loadInode(ino)
		if err != nil {
			fmt.Fprintf(w, "  ino %4d @%d: <%v>\n", ino, fs.imap[ino], err)
			continue
		}
		kind := "file"
		if in.IsDir() {
			kind = "dir "
		}
		txn := ""
		if in.TxnProtected() {
			txn = " txn-protected"
		}
		fmt.Fprintf(w, "  ino %4d @%-8d %s %8d B%s\n", ino, fs.imap[ino], kind, in.Size, txn)
	}

	st := fs.stats
	fmt.Fprintf(w, "\nactivity: %d partial segments, %d blocks logged (%d summary, %d inode pack, %d pointer), %d checkpoints\n",
		st.PartialSegments, st.BlocksLogged, st.PartialSegments, st.InodePackBlocks, st.PointerBlocks, st.Checkpoints)
	fmt.Fprintf(w, "commit forces: %d summary-only (%d bytes in patches, %d summary sectors), %d full; %d blocks in patches only\n",
		st.SummaryOnlyForces, st.PatchBytes, st.SummarySectors, st.FullForceCauses.Total(), len(fs.patched))
	fmt.Fprintf(w, "cleaner: %d runs, %d segments cleaned, %d copied, %d dead, busy %v\n",
		st.Cleaner.Runs, st.Cleaner.SegmentsCleaned, st.Cleaner.BlocksCopied, st.Cleaner.BlocksDead, st.Cleaner.BusyTime)
	return nil
}
