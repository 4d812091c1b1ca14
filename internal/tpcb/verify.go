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
//
// It is VerifyShardedState's audit of one unpartitioned file system.
func VerifyState(fsys vfs.FileSystem, committed []Txn, inFlight *Txn) error {
	return VerifyShardedState([]vfs.FileSystem{fsys}, nil, committed, inFlight)
}

// VerifyShardedState checks the recovered shards against the shadow history
// of committed transactions — the one audit body; VerifyState documents the
// history-count and inFlight rules — with the atomicity obligation spanning
// shards: the total history count across all shards must equal the committed
// count (or, with a non-nil inFlight, exactly one more, in which case every
// relation on every shard must consistently reflect the extra transaction).
// A cross-shard transfer that survived on one shard and vanished on another
// shows up here as a balance mismatch. With a Partitioner, every shard must
// also hold exactly its id range of each relation; part may be nil for one
// unpartitioned file system.
func VerifyShardedState(fss []vfs.FileSystem, part *Partitioner, committed []Txn, inFlight *Txn) error {
	var histTotal int64
	for i, fsys := range fss {
		hf, err := fsys.Open(HistoryPath)
		if err != nil {
			return fmt.Errorf("shard %d history: %w", i, err)
		}
		h, err := recno.Open(pagestore.NewFileStore(hf, fsys.BlockSize()))
		if err != nil {
			hf.Close()
			return fmt.Errorf("shard %d history: %w", i, err)
		}
		histTotal += h.Count()
		hf.Close()
	}
	expect := committed
	switch {
	case histTotal == int64(len(committed)):
		// The in-flight transaction (if any) did not reach durability.
	case inFlight != nil && histTotal == int64(len(committed))+1:
		// Durable but unacknowledged: fold it into the expected state.
		expect = make([]Txn, len(committed), len(committed)+1)
		copy(expect, committed)
		expect = append(expect, *inFlight)
	default:
		return fmt.Errorf("durability: history count across shards = %d, want %d (in-flight: %v)",
			histTotal, len(committed), inFlight != nil)
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
	// Per-relation totals across all shards must hit the global sum; ids are
	// decoded from the keys (a shard holds a range, not 0..n-1).
	sumShard := func(fsys vfs.FileSystem, path string, per map[int64]int64, lo, hi int64) (int64, error) {
		f, err := fsys.Open(path)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		defer f.Close()
		tr, err := btree.Open(pagestore.NewFileStore(f, fsys.BlockSize()))
		if err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		c, err := tr.First()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		var sum int64
		rows := int64(0)
		for c.Next() {
			id := int64(binary.BigEndian.Uint64(c.Key()))
			if part != nil && (id < lo || id >= hi) {
				return 0, fmt.Errorf("partition: %s id %d outside shard range [%d,%d)", path, id, lo, hi)
			}
			b := Balance(c.Value())
			sum += b
			if b != per[id] {
				return 0, fmt.Errorf("atomicity: %s id %d balance %d, want %d", path, id, b, per[id])
			}
			rows++
		}
		if err := c.Err(); err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		if part != nil && rows != hi-lo {
			return 0, fmt.Errorf("partition: %s holds %d rows, want %d", path, rows, hi-lo)
		}
		return sum, nil
	}
	check := func(path string, per map[int64]int64, rng func(*Partitioner, int) (int64, int64)) error {
		var total int64
		for i, fsys := range fss {
			var lo, hi int64
			if part != nil {
				lo, hi = rng(part, i)
			}
			sum, err := sumShard(fsys, path, per, lo, hi)
			if err != nil {
				return fmt.Errorf("shard %d %w", i, err)
			}
			total += sum
		}
		if total != want {
			return fmt.Errorf("balance: %s sum across shards = %d, want %d", path, total, want)
		}
		return nil
	}
	if err := check(AccountPath, perAccount, (*Partitioner).AccountRange); err != nil {
		return err
	}
	if err := check(TellerPath, perTeller, (*Partitioner).TellerRange); err != nil {
		return err
	}
	return check(BranchPath, perBranch, (*Partitioner).BranchRange)
}
