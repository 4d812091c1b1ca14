package figures

import (
	"strings"
	"testing"

	"repro/internal/tpcb"
)

// TestScanSweepShape runs the mixed OLTP + scan sweep at the CI scale and
// checks its acceptance shape: snapshot scans run lock-free on both LFS
// systems (scan-attributable lock time zero, asked mode honored), user-ffs
// degrades honestly to locking, and locking-mode scans cost the kernel
// system's writers throughput that snapshot-mode ones do not.
//
// The cost is read from the writers' TPS, not from the lock manager's total
// blocked time: at this scale every TPC-B transaction updates the one branch
// record, so most blocked time is writers waiting on writers, and it grows
// with their throughput. Snapshot scans take no locks, so the writers beside
// them block about as long as with no scan at all; writers held back by
// locking scans commit more slowly and so queue less on the branch, which can
// leave the total lower even though the scans cost them throughput.
func TestScanSweepShape(t *testing.T) {
	rep := report[*ScanReport](t, "scan")
	if len(rep.Rows) != 9 || len(rep.Modes) != 9 {
		t.Fatalf("want 3 systems x 3 modes, got %d rows / %d modes", len(rep.Rows), len(rep.Modes))
	}
	type key struct {
		sys  string
		mode tpcb.ScanMode
	}
	rows := map[key]int{}
	for i, snap := range rep.Rows {
		rows[key{snap.System, rep.Modes[i]}] = i
	}
	for _, sys := range []string{"user-ffs", "user-lfs", "kernel-lfs"} {
		for _, mode := range []tpcb.ScanMode{tpcb.ScanNone, tpcb.ScanLocking, tpcb.ScanSnapshot} {
			i, ok := rows[key{sys, mode}]
			if !ok {
				t.Fatalf("missing row %s/%s", sys, mode)
			}
			snap := rep.Rows[i]
			if mode == tpcb.ScanNone {
				if snap.Scan != nil {
					t.Errorf("%s baseline row has a scan section", sys)
				}
				continue
			}
			if snap.Scan == nil || snap.Scan.ScanRows == 0 {
				t.Fatalf("%s/%s row has no scan work: %+v", sys, mode, snap.Scan)
			}
			want := mode
			if sys == "user-ffs" && mode == tpcb.ScanSnapshot {
				want = tpcb.ScanLocking // no no-overwrite log to version from
			}
			if snap.Scan.ScanMode != want {
				t.Errorf("%s asked %s ran %s, want %s", sys, mode, snap.Scan.ScanMode, want)
			}
			if mode == tpcb.ScanSnapshot && sys != "user-ffs" {
				for _, row := range snap.Attribution {
					if strings.HasPrefix(row.Proc, "scan-") && row.Lock != 0 {
						t.Errorf("%s snapshot scan proc %s blocked %v on locks", sys, row.Proc, row.Lock)
					}
				}
			}
		}
	}
	lockRow := rep.Rows[rows[key{"kernel-lfs", tpcb.ScanLocking}]]
	snapRow := rep.Rows[rows[key{"kernel-lfs", tpcb.ScanSnapshot}]]
	if lockRow.Scan.WriterTPS >= snapRow.Scan.WriterTPS {
		t.Errorf("locking scans should cost the writers more throughput than snapshot scans: %.2f >= %.2f writer TPS",
			lockRow.Scan.WriterTPS, snapRow.Scan.WriterTPS)
	}
	s := rep.String()
	if !strings.Contains(s, "writerTPS") || !strings.Contains(s, "kernel-lfs") {
		t.Fatalf("report formatting broken:\n%s", s)
	}
}
