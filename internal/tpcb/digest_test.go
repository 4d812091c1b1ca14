package tpcb

import (
	"bytes"
	"hash/fnv"
	"slices"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/recno"
)

// StateDigest is the logical content of a rig's TPC-B database, hashed.
type StateDigest struct {
	// Balances covers every (key, record) pair of the account, teller and
	// branch relations, in key order.
	Balances uint64
	// History covers the history records in append order, and HistorySet
	// the same records as a sorted multiset; both leave the time stamp out,
	// since it is simulated time and differs between systems.
	History, HistorySet uint64
}

// Digest reads the rig's database as its own system reads it, through a
// snapshot pinned now, and hashes it. Systems that ran one transaction
// stream to the same answer have equal digests, whatever their timing: at
// MPL 1 all three fields agree, and at MPL > 1, where clients interleave
// differently, Balances and HistorySet do.
func Digest(r *Rig) (StateDigest, error) {
	var d StateDigest
	s := r.Sys.(*TxnSystem)
	store, release := s.mgr.pin()
	defer release()
	h := fnv.New64a()
	for _, rel := range s.rels[:relHistory] {
		tr, err := btree.Open(store(rel))
		if err != nil {
			return d, err
		}
		c, err := tr.First()
		if err != nil {
			return d, err
		}
		for c.Next() {
			h.Write(c.Key())
			h.Write(c.Value())
		}
		if err := c.Err(); err != nil {
			return d, err
		}
	}
	d.Balances = h.Sum64()

	hist, err := recno.Open(store(s.rels[relHistory]))
	if err != nil {
		return d, err
	}
	recs := make([][]byte, hist.Count())
	h.Reset()
	for i := range recs {
		rec, err := hist.Get(int64(i))
		if err != nil {
			return d, err
		}
		// Account, teller, branch and amount; the time stamp follows them.
		recs[i] = slices.Clone(rec[:32])
		h.Write(recs[i])
	}
	d.History = h.Sum64()
	slices.SortFunc(recs, bytes.Compare)
	h.Reset()
	for _, rec := range recs {
		h.Write(rec)
	}
	d.HistorySet = h.Sum64()
	return d, nil
}

// TestDigestAgreesAcrossSystems is the differential oracle over the three
// systems: one transaction stream gives one database on each, at MPL 1 and,
// up to the order of the history, at MPL 8 with group commit. What the
// systems may differ in is timing, never the answer.
func TestDigestAgreesAcrossSystems(t *testing.T) {
	const txns = 400
	cfg := ScaledConfig(0.01)
	digest := func(kind string, n, mpl int) StateDigest {
		t.Helper()
		rig, err := BuildRig(RigOptions{Kind: kind, Config: cfg, ExpectedTxns: txns, GroupCommit: mpl})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rig.RunMPL(cfg, n, mpl); err != nil {
			t.Fatal(err)
		}
		d, err := Digest(rig)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		return d
	}
	for _, mpl := range []int{1, 8} {
		var first StateDigest
		for i, kind := range []string{"user-ffs", "user-lfs", "kernel-lfs"} {
			d := digest(kind, txns, mpl)
			if i == 0 {
				first = d
				continue
			}
			if mpl == 1 && d != first {
				t.Errorf("MPL 1: %s digest %+v, user-ffs %+v", kind, d, first)
			}
			if d.Balances != first.Balances || d.HistorySet != first.HistorySet {
				t.Errorf("MPL %d: %s balances %x, history set %x; user-ffs %x, %x",
					mpl, kind, d.Balances, d.HistorySet, first.Balances, first.HistorySet)
			}
		}
	}
	// The oracle can tell answers apart: one transaction fewer is another
	// database.
	short, full := digest("kernel-lfs", txns-1, 1), digest("kernel-lfs", txns, 1)
	if short.Balances == full.Balances || short.HistorySet == full.HistorySet {
		t.Errorf("%d and %d transactions give digests %+v and %+v", txns-1, txns, short, full)
	}
}

// TestDigestIgnoresTimingKnobs: a knob that changes only when things happen
// leaves the answer alone. Each pair of runs differs in one such knob on one
// system, and must differ in simulated time — or the knob did nothing — but
// not in the database: at MPL 1 in no digest field, at MPL 8 in neither
// the balances nor the history multiset.
func TestDigestIgnoresTimingKnobs(t *testing.T) {
	const txns = 400
	cfg := ScaledConfig(0.01)
	for _, tc := range []struct {
		name string
		a, b RigOptions
		mpl  int
	}{
		{"kernel-lfs cleaner sync vs idle", RigOptions{Kind: "kernel-lfs"}, RigOptions{Kind: "kernel-lfs", CleanerMode: "idle"}, 1},
		{"user-lfs group commit 1 vs 8", RigOptions{Kind: "user-lfs"}, RigOptions{Kind: "user-lfs", GroupCommit: 8}, 8},
		{"user-ffs log segments default vs 4 KB", RigOptions{Kind: "user-ffs"}, RigOptions{Kind: "user-ffs", LogSegmentBytes: 4096}, 1},
		{"kernel-lfs group commit 8 vs 64", RigOptions{Kind: "kernel-lfs", GroupCommit: 8}, RigOptions{Kind: "kernel-lfs", GroupCommit: 64}, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var d [2]StateDigest
			var elapsed [2]time.Duration
			for i, o := range []RigOptions{tc.a, tc.b} {
				o.Config, o.ExpectedTxns, o.DiskScale = cfg, txns, 0.5
				rig, err := BuildRig(o)
				if err != nil {
					t.Fatal(err)
				}
				var chained func() int
				if o.GroupCommit == 64 {
					chained = countChains(rig)
				}
				res, err := rig.RunMPL(cfg, txns, tc.mpl)
				if err != nil {
					t.Fatal(err)
				}
				if chained != nil && chained() == 0 {
					t.Fatal("no batch outgrew a summary block: the row tests no chained commit force")
				}
				if d[i], err = Digest(rig); err != nil {
					t.Fatal(err)
				}
				elapsed[i] = res.Elapsed
			}
			if elapsed[0] == elapsed[1] {
				t.Fatalf("both runs took %v: the knob changed nothing", elapsed[0])
			}
			if tc.mpl == 1 && d[0] != d[1] {
				t.Errorf("digests %+v and %+v", d[0], d[1])
			}
			if d[0].Balances != d[1].Balances || d[0].HistorySet != d[1].HistorySet {
				t.Errorf("balances %x and %x, history sets %x and %x", d[0].Balances, d[1].Balances, d[0].HistorySet, d[1].HistorySet)
			}
		})
	}
}

// countChains watches a kernel rig's commit forces and returns a function that
// reports how many so far were chains: two or more partial segments carrying
// no data block, written back to back, that a force's completion follows. It
// compares the file system's counters before every device write: a partial's
// counters move right after its write, a force's right after its last partial.
func countChains(rig *Rig) func() int {
	n, run, last := 0, 0, rig.LFS.Stats()
	see := func() {
		st := rig.LFS.Stats()
		meta := st.InodePackBlocks - last.InodePackBlocks + st.PointerBlocks - last.PointerBlocks
		if st.PartialSegments == last.PartialSegments+1 && st.BlocksLogged-last.BlocksLogged == 1+meta {
			run++
		} else {
			run = 0
		}
		if st.SummaryOnlyForces > last.SummaryOnlyForces {
			if run >= 2 {
				n++
			}
			run = 0
		}
		last = st
	}
	rig.Dev.SetFault(func(op string, _ int64) error {
		if op == "write" {
			see()
		}
		return nil
	})
	return func() int {
		see()
		rig.Dev.SetFault(nil)
		return n
	}
}
