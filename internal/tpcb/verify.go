package tpcb

import (
	"encoding/binary"
	"fmt"

	"repro/internal/btree"
	"repro/internal/pagestore"
	"repro/internal/recno"
	"repro/internal/vfs"
)

// VerifyState checks a recovered file system's TPC-B state against the
// shadow history of committed transactions: every relation must hold exactly
// the balances the committed prefix implies, the per-relation sums must
// agree, and the history relation must hold one record per transaction.
//
// inFlight handles the commit-acknowledgement ambiguity inherent to crash
// testing: when the crash hits between a commit's durability point and its
// acknowledgement, recovery legitimately surfaces one more transaction than
// the harness saw committed. If inFlight is non-nil and the history relation
// holds len(committed)+1 records, the in-flight transaction is folded into
// the expected state — but then ALL relations must consistently reflect it.
// A mixture (history with the extra record but a balance without it, or vice
// versa) is an atomicity violation and fails verification.
func VerifyState(fsys vfs.FileSystem, committed []Txn, inFlight *Txn) error {
	hf, err := fsys.Open(HistoryPath)
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	h, err := recno.Open(pagestore.NewFileStore(hf, fsys.BlockSize()))
	if err != nil {
		hf.Close()
		return fmt.Errorf("history: %w", err)
	}
	histCount := h.Count()
	hf.Close()
	expect := committed
	switch {
	case histCount == int64(len(committed)):
		// The in-flight transaction (if any) did not reach durability.
	case inFlight != nil && histCount == int64(len(committed))+1:
		// Durable but unacknowledged: fold it into the expected state.
		expect = make([]Txn, len(committed), len(committed)+1)
		copy(expect, committed)
		expect = append(expect, *inFlight)
	default:
		return fmt.Errorf("durability: history count = %d, want %d (in-flight: %v)",
			histCount, len(committed), inFlight != nil)
	}

	var want int64
	perAccount := map[int64]int64{}
	perTeller := map[int64]int64{}
	perBranch := map[int64]int64{}
	for _, tx := range expect {
		want += tx.Amount
		perAccount[tx.Account] += tx.Amount
		perTeller[tx.Teller] += tx.Amount
		perBranch[tx.Branch] += tx.Amount
	}
	// Every balance must be the one the expected history implies, and each
	// relation's total the history's sum; ids are decoded from the keys.
	check := func(path string, per map[int64]int64) error {
		f, err := fsys.Open(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		defer f.Close()
		tr, err := btree.Open(pagestore.NewFileStore(f, fsys.BlockSize()))
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		c, err := tr.First()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		var sum int64
		for c.Next() {
			id := int64(binary.BigEndian.Uint64(c.Key()))
			b := Balance(c.Value())
			sum += b
			if b != per[id] {
				return fmt.Errorf("atomicity: %s id %d balance %d, want %d", path, id, b, per[id])
			}
		}
		if err := c.Err(); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if sum != want {
			return fmt.Errorf("balance: %s sum = %d, want %d", path, sum, want)
		}
		return nil
	}
	if err := check(AccountPath, perAccount); err != nil {
		return err
	}
	if err := check(TellerPath, perTeller); err != nil {
		return err
	}
	return check(BranchPath, perBranch)
}
