package tpcb

import (
	"fmt"
	"testing"
)

// TestLockRequestsPerTransaction pins the lock-manager requests one TPC-B
// transaction makes at the contended benchmark's scale. The kernel locks
// inside every read and write system call: 19. LIBTP writes the account,
// teller and branch leaves and the history tail page under the write locks it
// took when it read them for update, so those four writes ask for nothing: 15.
func TestLockRequestsPerTransaction(t *testing.T) {
	const txns = 300
	cfg := ScaledConfig(0.02)
	for _, tc := range []struct {
		kind string
		mpl  int
		want string
	}{
		{"user-ffs", 1, "15.0"},
		{"user-lfs", 1, "15.0"},
		{"kernel-lfs", 1, "19.0"},
		{"user-lfs", 8, "15.0"},
		{"kernel-lfs", 8, "19.0"},
	} {
		t.Run(fmt.Sprintf("%s/mpl%d", tc.kind, tc.mpl), func(t *testing.T) {
			rig, err := BuildRig(RigOptions{Kind: tc.kind, Config: cfg, ExpectedTxns: txns, GroupCommit: tc.mpl})
			if err != nil {
				t.Fatal(err)
			}
			before := rig.LockStats()
			res, err := rig.RunMPL(cfg, txns, tc.mpl)
			if err != nil {
				t.Fatal(err)
			}
			st := rig.LockStats()
			if res.Retries != 0 || st.Deadlocks != before.Deadlocks {
				t.Fatalf("%d retries, %d deadlocks: a retry repeats requests", res.Retries, st.Deadlocks-before.Deadlocks)
			}
			if got := fmt.Sprintf("%.1f", float64(st.Requests-before.Requests)/txns); got != tc.want {
				t.Fatalf("%s lock requests per transaction, want %s", got, tc.want)
			}
		})
	}
}
