package tpcb

import (
	"testing"

	"repro/internal/lfs"
)

// The tests in this file run `cmd/tpcb` configurations and check a count in
// their snapshot that says a mechanism is doing its job: no abort storm, no
// early acknowledgement, summary-only chains, sector-sized transfers, kept
// blocks served, hot blocks left dirty. Each runs in well under a second.

// cliRun runs what `tpcb -system system -scale scale -txns txns -mpl mpl
// -groupcommit gc` runs — a traced rig at the default costs and cleaner —
// and returns the snapshot it prints.
func cliRun(t *testing.T, system string, scale float64, txns, mpl, gc int) *Snapshot {
	t.Helper()
	cfg := ScaledConfig(scale)
	rig, err := BuildRig(RigOptions{Kind: system, Config: cfg, GroupCommit: gc, ExpectedTxns: txns, Trace: true})
	if err != nil {
		t.Fatalf("BuildRig(%s): %v", system, err)
	}
	res, err := rig.RunMPL(cfg, txns, mpl)
	if err != nil {
		t.Fatalf("RunMPL(%s, mpl %d): %v", system, mpl, err)
	}
	return rig.Snapshot(MixedResult{Result: res})
}

// Balances are read for update, so the hot teller leaf queues writers instead
// of deadlocking them on the read-to-write upgrade: 64 user-lfs clients retry
// no transaction. A retry means some caller went back to Get-then-Put; the
// `locks:` line names the cause (upgrade or order).
func TestUserContentionRetriesNothing(t *testing.T) {
	s := cliRun(t, "user-lfs", 0.02, 500, 64, 8)
	if s.MPL != 64 || s.Retries != 0 || s.LFS == nil {
		t.Fatalf("MPL %d, %d deadlock retries, lfs section %v; want MPL 64, 0 retries and the file system's section\n%s",
			s.MPL, s.Retries, s.LFS != nil, s.Render())
	}
}

// Group commit batches concurrent committers and nothing else: a lone client
// is never acknowledged out of a deferred batch, so at MPL 1 no commit waits
// on another's force whatever the group size is.
func TestLoneClientIsNeverGroupAbsorbed(t *testing.T) {
	for _, system := range []string{"user-lfs", "user-ffs"} {
		s := cliRun(t, system, 0.02, 300, 1, 8)
		if s.WAL == nil || s.WAL.GroupCommits != 0 {
			t.Fatalf("%s at MPL 1 with group commit 8: a commit was acknowledged out of a batch\n%s", system, s.Render())
		}
	}
}

// 64 kernel committers in one batch change more bytes than a summary block's
// patch records hold, so FlushCommit writes them as a chain of summary-only
// partials (lfs.writeSummaryChainLocked). A FlushCommit never logs a page
// whole: every force is summary-only and none has blocks, for any cause.
func TestKernelBatchIsASummaryChain(t *testing.T) {
	s := cliRun(t, "kernel-lfs", 0.02, 500, 64, 64)
	if s.Embedded == nil || s.LFS == nil {
		t.Fatalf("no embedded manager or lfs section\n%s", s.Render())
	}
	if f := s.LFS; f.SummaryOnlyForces == 0 || f.FullForceCauses != (lfs.ForceCauses{}) {
		t.Fatalf("%d summary-only FlushCommit forces, %+v with blocks; want some, and none with blocks\n%s",
			f.SummaryOnlyForces, f.FullForceCauses, s.Render())
	}
}

// A partial segment with no block after its summary is a sub-block write of
// the summary's 512-byte sectors (lfs.writePartialLocked). A kernel-lfs force
// at MPL 1 patches about 48 bytes, so its summary fills one sector: the
// summary sectors are fewer than two per summary-only force, and more than
// none.
func TestSummaryForceTransfersItsSectors(t *testing.T) {
	s := cliRun(t, "kernel-lfs", 0.02, 1000, 1, 1)
	forces, sectors := s.LFS.SummaryOnlyForces, s.LFS.SummarySectors
	if forces <= 0 || sectors <= 0 || sectors >= 2*forces {
		t.Fatalf("%d summary-only forces wrote %d summary sectors; want 0 < sectors < 2 × forces", forces, sectors)
	}
}

// An FFS in-place write moves only the sectors its block's changed bytes fill
// (the hull of buffer.Changed), and a run of them from its first block's first changed
// sector through its last block's last: a user-ffs WAL force changes only the
// records it appends, in the tail block and the fresh block after it, which
// the log's preallocation left zero on disk. At MPL 1 such writes happen, and
// each moves under three sectors on average.
func TestFFSWritesOnlyChangedSectors(t *testing.T) {
	s := cliRun(t, "user-ffs", 0.02, 1000, 1, 1)
	writes, sectors := s.FFS.ShortWrites, s.FFS.ShortWriteSectors
	if sectors <= 0 || sectors >= 3*writes {
		t.Fatalf("%d short writes moved %d sectors; want 0 < sectors < 3 × writes", writes, sectors)
	}
}

// A flush keeps each staged block it wrote that no cached buffer holds in its
// frame (ufs.Stage's kept state) until a later park reclaims the frame, and a
// cache miss reads it there. At MPL 8 account-leaf misses re-read blocks the
// stage has just written on both file systems.
func TestStageServesKeptBlocks(t *testing.T) {
	for _, system := range []string{"kernel-lfs", "user-ffs"} {
		s := cliRun(t, system, 0.02, 1000, 8, 8)
		var hits int64
		switch {
		case s.LFS != nil:
			hits = s.LFS.Stage.KeptHits
		case s.FFS != nil:
			hits = s.FFS.Stage.KeptHits
		}
		if hits <= 0 {
			t.Fatalf("%s at MPL 8: no fetch was served by a kept block\n%s", system, s.Render())
		}
	}
}

// A full-stage flush logs the parked blocks and only the dirty cached blocks
// the flush before it did not find dirty (lfs.maybeFlushStageLocked): a hot
// page is logged by its eviction or the checkpoint, not at every flush. A
// kernel page a commit force patched stays dirty, and at MPL 8 the hot ones
// are dirty again at the next flush.
func TestFullStageFlushLeavesHotBlocks(t *testing.T) {
	s := cliRun(t, "kernel-lfs", 0.02, 1000, 8, 8)
	if s.LFS == nil || s.LFS.HotBlocksLeft <= 0 {
		t.Fatalf("full-stage flushes left no hot cached block dirty\n%s", s.Render())
	}
}
