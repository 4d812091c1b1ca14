package tpcb

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/ffs"
	"repro/internal/lfs"
	"repro/internal/libtp"
	"repro/internal/lock"
	"repro/internal/wal"
)

var update = flag.Bool("update", false, "re-record the golden snapshots under testdata/")

// goldenRigs are the three rig shapes the snapshot tests cover, with the
// snapshot sections each must carry (the layers it is built from).
var goldenRigs = []struct {
	kind     string
	sections []string
}{
	{"user-ffs", []string{"disk", "ffs", "wal", "locks", "libtp", "buffer_fs", "buffer_user"}},
	{"user-lfs", []string{"disk", "lfs", "wal", "locks", "libtp", "buffer_fs", "buffer_user"}},
	{"kernel-lfs", []string{"disk", "lfs", "locks", "embedded", "buffer_fs"}},
}

// layerStats maps each snapshot section to the layer Stats type behind it:
// every counter struct the report is made of.
var layerStats = map[string]any{
	"disk":        disk.Stats{},
	"lfs":         lfs.Stats{}, // nests lfs.CleanerStats and disk.BgTimes
	"ffs":         ffs.Stats{}, // nests disk.BgTimes
	"wal":         wal.Stats{},
	"locks":       lock.Stats{},
	"libtp":       libtp.Stats{},
	"embedded":    core.Stats{},
	"buffer_fs":   buffer.Stats{},
	"buffer_user": buffer.Stats{},
}

// goldenSnapshot runs 600 transactions on a small traced rig — a cache too
// small for the database and a disk tight enough that the log wraps, so
// reads, queueing and the cleaner all show — and collects its snapshot.
// MPL 8 runs with group commit 8, MPL 1 forces every commit.
func goldenSnapshot(t *testing.T, kind string, mpl int) *Snapshot {
	t.Helper()
	const txns = 600
	cfg := smallCfg()
	rig, err := BuildRig(RigOptions{
		Kind: kind, Config: cfg, ExpectedTxns: txns, GroupCommit: mpl, DiskScale: 0.5, CacheBlocks: 48,
		Trace: true,
	})
	if err != nil {
		t.Fatalf("BuildRig(%s): %v", kind, err)
	}
	res, err := rig.RunMPL(cfg, txns, mpl)
	if err != nil {
		t.Fatalf("RunMPL(%s, mpl %d): %v", kind, mpl, err)
	}
	return rig.Snapshot(MixedResult{Result: res})
}

// TestSnapshotGolden pins Snapshot.Render and the snapshot JSON of the three
// rig shapes byte for byte — the capture-and-diff procedure of the verify
// skill as a tier-1 test. Any change to a simulated number, a counter, a key
// or a report line shows up as a golden diff; re-record with
// `go test ./internal/tpcb -run TestSnapshotGolden -update` and say why.
//
// Re-recorded, all sixteen files, when commit forces stopped logging what
// roll-forward can rebuild (causes as in TestPinnedSignatures):
//
//	user-ffs mpl1, mpl8     recno only — 3,601 → 3,001 WAL records (no meta-page
//	                        update), 221.7 → 194.7 KB; 17.60 → 17.69, 61.01 → 60.55 TPS
//	user-lfs mpl1, mpl8     the same WAL saving, and log forces without an inode pack:
//	                        2,479 → 1,721 and 487 → 439 blocks logged; 29.74 → 36.47,
//	                        101.32 → 104.87 TPS
//	user-lfs[2] mpl1, mpl8  as user-lfs on two logs: 3,005 → 2,143 and 1,569 → 1,201
//	                        blocks logged; 34.37 → 41.49, 79.95 → 95.59 TPS
//	kernel-lfs mpl1, mpl8   4 pages flushed per transaction instead of 5 (3,000 → 2,400;
//	                        887 → 805 batched) and pack-less forces: 5,018 → 3,645 and
//	                        1,202 → 1,055 blocks logged; 25.62 → 32.34, 81.70 → 88.12 TPS
//
// In every file the locks line gains 6 or 7 acquisitions (the page a history append
// opens is read for update; the meta page is still locked, now shared), every
// LFS `lfs:` line gains the split by block kind and every `lfs` JSON section
// the keys inode_pack_blocks and pointer_blocks.
//
// The four user-ffs files, when FFS began staging evicted dirty blocks
// (causes as in TestPinnedSignatures): 27.15 → 34.87 TPS at MPL 1 and
// 65.46 → 85.41 at MPL 8; 974 → 745 and 436 → 203 write ops. Both text files
// gain the `ffs:` line and both `ffs` JSON sections the keys blocks_staged and
// staged_flushes; syncer_runs, which counted every non-empty flush (617 at
// MPL 1, one per log force), now counts syncer passes — none in these 17 s
// and 7 s runs.
//
// All sixteen files, when write-behind moved to the background lane: every
// `ffs:` and `lfs:` line ends in its write-behind busy, overlapped and stalled
// time, and every `ffs` and `lfs` JSON section gains write_behind; the `lfs:`
// line and section also count flushes of a full stage (staged_flushes). No
// number moved: these runs fill no stage and reach no syncer pass.
//
// The two kernel-lfs text files, when the `embedded:` line stopped calling the
// pages a commit flush made durable "forced": nearly every kernel force is one
// summary block carrying their changed bytes (the `lfs:` line above gives the
// share), so the line now says "committed". No number or JSON key moved.
//
// The four user-level files, when a LIBTP page write-back began to force the
// log only through its page (causes as in TestPinnedSignatures). Every `wal:`
// line counts the page write-backs, those that forced the log and those that
// found it durable, and every `libtp` JSON section gains write_back_forces
// and write_back_skips; none of these runs' write-backs forces. At MPL 1 the
// seven mid-transaction forces go (608 → 601): 39.21 → 39.42 TPS on user-ffs,
// 48.34 → 48.46 on user-lfs. At MPL 8 forces fall 83 → 76 and lock-blocked
// time 11.2 → 10.3 s: 110.24 → 112.62 and 118.90 → 120.83 TPS. The kernel-lfs
// files did not move.
//
// The user-lfs and kernel-lfs MPL 1 JSON files, when the cleaner stopped
// counting its passes and victims into the metrics registry: the counters
// cleaner.passes and cleaner.victims twinned the cleaner section's batches
// and batch_victims, which still carry the same 2 and 5. Nothing else moved.
//
// All LFS files, when a block evicted with an empty delta began to be parked
// as its durable image: the first `lfs:` line counts the fetches the stage
// served, the second the pages read back from the stage that summary-only
// forces committed and the forces with blocks by cause, and each `lfs` JSON
// section gains full_force_causes, stage_hits and staged_patched. On
// user-lfs a File.Sync no longer logs the WAL whole because a durable block
// of it is staged: forces with blocks 15 → 6 at MPL 1 (48.46 → 51.33 TPS)
// and 14 → 6 at MPL 8 (120.83 → 125.54). The kernel-lfs runs make no force
// with blocks before or after, and moved in nothing else. Every file, user-ffs
// included, when buffer lookups about to write began to count apart:
// buffer_fs and buffer_user gain write_hits and write_misses, and their hits
// and misses, with the buffer.<pool>.{hit,miss} registry counters, count
// reads only. No simulated number moved by that.
//
// All twelve files, when the write-behind stage began to keep what it wrote
// (causes as in TestPinnedSignatures): the `lfs:` and `ffs:` lines split the
// fetches the stage served into parked and kept ones and count the kept
// blocks reclaimed unread, and each `lfs` and `ffs` JSON section carries
// them as stage {parked_hits, kept_hits, kept_reclaimed_unread} in place of
// stage_hits. The user-level runs read half as often: 54 → 27 and 58 → 31
// read ops on user-ffs, 74 → 37 and 58 → 31 on user-lfs, for 39.42 → 41.12
// and 112.62 → 116.11 TPS on user-ffs, 51.33 → 56.55 and 125.54 → 130.56 on
// user-lfs; at MPL 8 lock-blocked time rises 0.6 s, the writers meeting
// sooner on the branch, and the WAL's bytes move with the history rows'
// timestamps. The kernel-lfs runs evict nothing, and moved in nothing else.
//
// The eight LFS files, when a full-stage flush began to leave dirty the
// cached blocks the flush before it had found dirty: the `lfs:` line counts
// them after the flushes of a full stage, and each `lfs` JSON section gains
// hot_blocks_left. These runs fill no stage, so the count is 0 and no number
// moved.
//
// The eight LFS files, when a partial segment with no block after its summary
// began to write only the sectors its summary fills (causes as in
// TestPinnedSignatures): the second `lfs:` line counts the summary sectors
// after the patch bytes, and each `lfs` JSON section gains summary_sectors. A
// force's summary fills one sector at MPL 1 (592 sectors for 600 kernel
// forces, the rest whole blocks beside an inode pack) and two or three in an
// MPL 8 batch. user-lfs gains 56.55 → 57.17 and 130.56 → 131.10 TPS, the
// kernel 74.09 → 74.28 and 163.74 → 163.92; the WAL's and the patches' bytes
// move with the history rows' timestamps. The user-ffs files did not move.
func TestSnapshotGolden(t *testing.T) {
	for _, rig := range goldenRigs {
		for _, mpl := range []int{1, 8} {
			name := fmt.Sprintf("%s_mpl%d", rig.kind, mpl)
			t.Run(name, func(t *testing.T) {
				snap := goldenSnapshot(t, rig.kind, mpl)
				var js bytes.Buffer
				if err := snap.WriteJSON(&js); err != nil {
					t.Fatal(err)
				}
				for ext, got := range map[string][]byte{".txt": []byte(snap.Render()), ".json": js.Bytes()} {
					path := filepath.Join("testdata", "snapshot_"+name+ext)
					if *update {
						if err := os.WriteFile(path, got, 0o644); err != nil {
							t.Fatal(err)
						}
						continue
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("%s differs from the golden file (-update re-records):\n--- got\n%s\n--- want\n%s", path, got, want)
					}
				}
			})
		}
	}
}

// jsonKey returns the key a struct field marshals under.
func jsonKey(f reflect.StructField) string {
	key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
	return key
}

// TestEveryCounterIsTagged: every field of every layer's Stats type carries
// a unique snake_case json key, so none can be left out of the report or
// collide in it.
func TestEveryCounterIsTagged(t *testing.T) {
	snake := regexp.MustCompile(`^[a-z]+(_[a-z]+)*$`)
	var check func(typ reflect.Type)
	check = func(typ reflect.Type) {
		seen := map[string]string{}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			key := jsonKey(f)
			if !f.IsExported() || !snake.MatchString(key) {
				t.Errorf("%s.%s: want an exported field with a snake_case json key, got %q", typ, f.Name, key)
			}
			if prev, dup := seen[key]; dup {
				t.Errorf("%s: %s and %s share json key %q", typ, prev, f.Name, key)
			}
			seen[key] = f.Name
			if strings.Contains(f.Tag.Get("json"), "omitempty") {
				t.Errorf("%s.%s: omitempty hides a zero counter from the report", typ, f.Name)
			}
			if f.Type.Kind() == reflect.Struct {
				check(f.Type)
			}
		}
	}
	for _, st := range layerStats {
		check(reflect.TypeOf(st))
	}
}

// TestSnapshotCarriesEveryCounter: the snapshot of each rig shape marshals a
// key for every field of every layer the rig is built from — a counter added
// to a layer's Stats is in the report with no edit outside that layer.
func TestSnapshotCarriesEveryCounter(t *testing.T) {
	var check func(t *testing.T, path string, typ reflect.Type, got any)
	check = func(t *testing.T, path string, typ reflect.Type, got any) {
		obj, ok := got.(map[string]any)
		if !ok {
			t.Errorf("snapshot has no %s section", path)
			return
		}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			key := path + "." + jsonKey(f)
			if f.Type.Kind() == reflect.Struct {
				check(t, key, f.Type, obj[jsonKey(f)])
			} else if _, ok := obj[jsonKey(f)]; !ok {
				t.Errorf("snapshot lacks %s (%s.%s)", key, typ, f.Name)
			}
		}
	}
	for _, rig := range goldenRigs {
		t.Run(rig.kind, func(t *testing.T) {
			b, err := json.Marshal(goldenSnapshot(t, rig.kind, 8))
			if err != nil {
				t.Fatal(err)
			}
			var doc map[string]any
			if err := json.Unmarshal(b, &doc); err != nil {
				t.Fatal(err)
			}
			for _, sec := range rig.sections {
				check(t, sec, reflect.TypeOf(layerStats[sec]), doc[sec])
			}
		})
	}
}
