package lfs

import (
	"slices"
	"testing"
)

// TestPickVictimsEmptiestFirst builds a segment usage table on which an
// age-weighted ranking (Sprite LFS's cost-benefit) and the cleaner's
// fewest-live-blocks ranking disagree, and checks the cleaner takes the
// emptiest checkpointed segments, ties to the lower segment number.
func TestPickVictimsEmptiestFirst(t *testing.T) {
	fs, _, _ := tinyFS(t)
	if fs.sb.SegmentBlocks != 64 || fs.sb.NumSegments < 16 {
		t.Fatalf("geometry %d segments × %d blocks", fs.sb.NumSegments, fs.sb.SegmentBlocks)
	}
	for s := range fs.segs {
		fs.segs[s] = segInfo{State: segFree}
	}
	fs.seq, fs.cpBound = 200, 100
	for s, info := range map[int64]segInfo{
		2: {segInLog, 50, 5},
		3: {segInLog, 40, 10},
		5: {segInLog, 10, 20},
		// Young and as empty as segment 5: an age term ranks it below
		// the older, fuller segment 9.
		7: {segInLog, 10, 95},
		9: {segInLog, 20, 12},
		// Excluded: written at or past the checkpoint bound, over the
		// live cap, or not in the log at all.
		12: {segInLog, 0, 100},
		13: {segInLog, 0, 150},
		14: {segInLog, fs.sb.SegmentBlocks - minCleanGain + 1, 1},
		15: {segCurrent, 0, 199},
		16: {segReserved, 0, 0},
	} {
		fs.segs[s] = info
	}

	for _, tc := range []struct {
		maxLive int64
		want    []int64
	}{
		{fs.sb.SegmentBlocks, []int64{5, 7, 9, 3}}, // capped at SegmentBlocks - minCleanGain; batch of cleanBatch
		{20, []int64{5, 7, 9}},
		{10, []int64{5, 7}},
		{9, nil},
	} {
		if got := fs.pickVictimsLocked(tc.maxLive); !slices.Equal(got, tc.want) {
			t.Errorf("pickVictimsLocked(%d) = %v, want %v", tc.maxLive, got, tc.want)
		}
	}
}
