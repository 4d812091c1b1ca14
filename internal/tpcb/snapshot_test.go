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
	"runtime"
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

var update = flag.Bool("update", false, "re-record the pinned snapshots under testdata/")

// pinnedTxns is how many transactions every pinned run executes.
const pinnedTxns = 600

// allocBudget is what one rig may allocate on the host: to build (format and
// bulk load) and per transaction of the measured run.
type allocBudget struct {
	buildKB, buildObjects   float64
	perTxnKB, perTxnObjects float64
}

// pinnedRun is one run shape whose report is pinned.
type pinnedRun struct {
	name     string // the report is testdata/snapshot_<name>.{json,txt}
	opts     RigOptions
	mpl      int
	scanners int          // snapshot scan clients, one full account scan each
	budget   *allocBudget // host allocation ceilings, when the shape has them
}

// pinnedRuns is every run shape whose simulated numbers are pinned. The
// signature shapes run TPC-B at scale 0.01 untraced, across the three
// systems and MPL 1 to 256. The others are a small traced rig — a cache too
// small for the database and a disk tight enough that the log wraps, so
// reads, queueing and the cleaner all show — at MPL 1, and at MPL 8 with
// group commit 8.
func pinnedRuns() []pinnedRun {
	cfg := ScaledConfig(0.01)
	sig := func(kind string, gc int) RigOptions {
		return RigOptions{Kind: kind, Config: cfg, ExpectedTxns: pinnedTxns, GroupCommit: gc}
	}
	with := func(o RigOptions, f func(*RigOptions)) RigOptions { f(&o); return o }
	runs := []pinnedRun{
		{"signature_user-ffs_mpl1", sig("user-ffs", 1), 1, 0, &allocBudget{4416, 2222, 6.3, 35.0}},
		{"signature_user-lfs_mpl1", sig("user-lfs", 1), 1, 0, &allocBudget{3289, 2035, 16.0, 50.0}},
		{"signature_kernel-lfs_mpl1", sig("kernel-lfs", 1), 1, 0, &allocBudget{3721, 2093, 12.2, 73.3}},
		{"signature_user-ffs_mpl8", sig("user-ffs", 8), 8, 0, nil},
		{"signature_user-lfs_mpl8", sig("user-lfs", 8), 8, 0, nil},
		{"signature_kernel-lfs_mpl8", sig("kernel-lfs", 8), 8, 0, nil},
		{"signature_kernel-lfs_mpl8-idle-cleaner", with(sig("kernel-lfs", 8), func(o *RigOptions) {
			o.CleanerMode, o.DiskScale = "idle", 0.5
		}), 8, 0, nil},
		{"signature_user-ffs_mpl64", sig("user-ffs", 8), 64, 0, &allocBudget{4405, 2211, 9.5, 37.4}},
		{"signature_user-lfs_mpl64", sig("user-lfs", 8), 64, 0, &allocBudget{3289, 2033, 14.4, 41.1}},
		{"signature_kernel-lfs_mpl64", sig("kernel-lfs", 8), 64, 0, &allocBudget{3721, 2093, 11.2, 61.7}},
		// The shape `txnbench -fig mpl` gives its MPL 256 cells: one buffer per
		// client (CacheBlocks = MPL, see figures.FigureMPL), the kernel's cleaner
		// in idle windows.
		{"signature_user-ffs_mpl256", with(sig("user-ffs", 8), func(o *RigOptions) { o.CacheBlocks = 256 }), 256, 0, nil},
		{"signature_user-lfs_mpl256", with(sig("user-lfs", 8), func(o *RigOptions) { o.CacheBlocks = 256 }), 256, 0, nil},
		{"signature_kernel-lfs_mpl256", with(sig("kernel-lfs", 8), func(o *RigOptions) {
			o.CacheBlocks, o.CleanerMode = 256, "idle"
		}), 256, 0, nil},
		{"signature_user-lfs_mpl8-snapshot-scans", with(sig("user-lfs", 8), func(o *RigOptions) {
			o.CleanerMode, o.DiskScale = "idle", 6.0
		}), 8, 2, nil},
	}
	for _, kind := range mplKinds {
		for _, mpl := range []int{1, 8} {
			runs = append(runs, pinnedRun{name: fmt.Sprintf("%s_mpl%d", kind, mpl), mpl: mpl, opts: RigOptions{
				Kind: kind, Config: smallCfg(), ExpectedTxns: pinnedTxns, GroupCommit: mpl, DiskScale: 0.5, CacheBlocks: 48,
				Trace: true,
			}})
		}
	}
	return runs
}

// pinnedOutcome is what the one build and run of a pinned shape left: its
// report, and what the build and the run allocated on the host.
type pinnedOutcome struct {
	res  MixedResult
	snap *Snapshot
	used allocBudget
	err  error
}

// pinnedOutcomes holds each shape's outcome by name once it has run, so the
// pin tests below share one build and run of every shape.
var pinnedOutcomes = map[string]*pinnedOutcome{}

// runPinned returns the outcome of one shape, building and running it the
// first time it is asked for. The allocation counts are properties of the
// program, not of the host, and repeat to a fraction of a percent.
func runPinned(t *testing.T, run pinnedRun) *pinnedOutcome {
	t.Helper()
	out, ok := pinnedOutcomes[run.name]
	if !ok {
		out = &pinnedOutcome{}
		pinnedOutcomes[run.name] = out
		measure := func(f func()) (kb, objects float64) {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			f()
			runtime.ReadMemStats(&m1)
			return float64(m1.TotalAlloc-m0.TotalAlloc) / 1024, float64(m1.Mallocs - m0.Mallocs)
		}
		var rig *Rig
		buildKB, buildObjects := measure(func() { rig, out.err = BuildRig(run.opts) })
		if out.err == nil {
			runKB, runObjects := measure(func() {
				out.res, out.err = rig.RunMixed(run.opts.Config, pinnedTxns, run.mpl, run.scanners, 1, ScanSnapshot)
			})
			out.used = allocBudget{buildKB, buildObjects, runKB / pinnedTxns, runObjects / pinnedTxns}
		}
		if out.err == nil {
			out.snap = rig.Snapshot(out.res)
		}
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	return out
}

// checkPinned compares one shape's Snapshot.Render and snapshot JSON byte
// for byte with testdata/snapshot_<name>.{txt,json}, or re-records them
// under -update.
func checkPinned(t *testing.T, run pinnedRun) {
	out := runPinned(t, run)
	if rows := int64(run.scanners) * run.opts.Config.Accounts; run.scanners > 0 && out.res.ScanMode != ScanSnapshot || out.res.ScanRows != rows {
		t.Fatalf("scans ran as %s over %d rows, want snapshot scans over %d", out.res.ScanMode, out.res.ScanRows, rows)
	}
	if run.mpl == 1 && out.snap.Disk.QueueTime != 0 {
		t.Errorf("a lone client must never queue for the disk, got %v", out.snap.Disk.QueueTime)
	}
	var js bytes.Buffer
	if err := out.snap.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for ext, got := range map[string][]byte{".txt": []byte(out.snap.Render()), ".json": js.Bytes()} {
		path := filepath.Join("testdata", "snapshot_"+run.name+ext)
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
}

// TestPinnedSignatures and TestSnapshotGolden are the one pin of the
// harness's simulated behaviour, split only by shape: the first checks the
// signature shapes of pinnedRuns, the second the small traced ones. Each
// compares every number, counter, JSON key and report line of a shape with
// its committed files, so any change to one shows up as a diff. A change
// that means to move one re-records every file with
//
//	go test ./internal/tpcb -run 'TestPinnedSignatures|TestSnapshotGolden' -update
//
// and says why in CHANGES.md.
func TestPinnedSignatures(t *testing.T) {
	for _, run := range pinnedRuns() {
		if name, ok := strings.CutPrefix(run.name, "signature_"); ok {
			t.Run(strings.Replace(name, "_", "/", 1), func(t *testing.T) { checkPinned(t, run) })
		}
	}
}

// TestSnapshotGolden pins the traced shapes; see TestPinnedSignatures.
func TestSnapshotGolden(t *testing.T) {
	for _, run := range pinnedRuns() {
		if !strings.HasPrefix(run.name, "signature_") {
			t.Run(run.name, func(t *testing.T) { checkPinned(t, run) })
		}
	}
}

// TestAllocBudget checks what the shapes with a budget allocate on the host
// in the same build and run the pins use, so a page touch that goes back to
// allocating its 4 KB frame shows as kilobytes per transaction or per build.
// The ceilings are measured values times 1.15 (-v prints the measurements).
func TestAllocBudget(t *testing.T) {
	for _, run := range pinnedRuns() {
		if run.budget == nil {
			continue
		}
		name := "serial"
		if run.mpl > 1 {
			name = fmt.Sprintf("mpl%d", run.mpl)
		}
		t.Run(name+"/"+run.opts.Kind, func(t *testing.T) {
			used, ceil := runPinned(t, run).used, run.budget
			t.Logf("build %.0f KB in %.0f objects; per transaction %.1f KB in %.1f objects",
				used.buildKB, used.buildObjects, used.perTxnKB, used.perTxnObjects)
			check := func(what string, got, max float64) {
				if got > max {
					t.Errorf("%s: %.1f, over the budget of %.1f", what, got, max)
				}
			}
			check("build KB", used.buildKB, ceil.buildKB)
			check("build objects", used.buildObjects, ceil.buildObjects)
			check("KB per transaction", used.perTxnKB, ceil.perTxnKB)
			check("objects per transaction", used.perTxnObjects, ceil.perTxnObjects)
		})
	}
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

// TestSnapshotCarriesEveryCounter: the pinned snapshot of each system at
// MPL 8 carries a key for every field of every layer the rig is built from —
// a counter added to a layer's Stats is in the report with no edit outside
// that layer. It reads the committed files TestSnapshotGolden keeps current.
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
	for _, rig := range []struct {
		kind     string
		sections []string
	}{
		{"user-ffs", []string{"disk", "ffs", "wal", "locks", "libtp", "buffer_fs", "buffer_user"}},
		{"user-lfs", []string{"disk", "lfs", "wal", "locks", "libtp", "buffer_fs", "buffer_user"}},
		{"kernel-lfs", []string{"disk", "lfs", "locks", "embedded", "buffer_fs"}},
	} {
		t.Run(rig.kind, func(t *testing.T) {
			b, err := os.ReadFile(filepath.Join("testdata", "snapshot_"+rig.kind+"_mpl8.json"))
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
