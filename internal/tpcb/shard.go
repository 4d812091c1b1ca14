package tpcb

import (
	"encoding/binary"
	"fmt"

	"repro/internal/btree"
	"repro/internal/libtp"
	"repro/internal/lock"
	"repro/internal/pagestore"
	"repro/internal/recno"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// Partitioner maps TPC-B row ids to shards. Every relation is range-
// partitioned into contiguous id ranges, one per shard: shard s owns rows
// [lo, hi) where the base quota is count/shards rows and the first
// count%shards shards take exactly one extra row each — the remainder is
// spread explicitly rather than piled onto the last shard. Construction
// validates the configuration against the shard count so an undersized
// relation (fewer rows than shards) fails loudly instead of silently
// producing empty shards whose balance invariants would never trip.
type Partitioner struct {
	shards   int
	accounts int64
	tellers  int64
	branches int64
}

// NewPartitioner validates cfg against the shard count and returns the
// range partitioner.
func NewPartitioner(cfg Config, shards int) (*Partitioner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if shards < 1 {
		return nil, fmt.Errorf("tpcb: need at least 1 shard, got %d", shards)
	}
	if cfg.Accounts < int64(shards) || cfg.Tellers < int64(shards) || cfg.Branches < int64(shards) {
		return nil, fmt.Errorf("tpcb: config %d accounts / %d tellers / %d branches cannot partition across %d shards (every shard needs at least one row of each relation)",
			cfg.Accounts, cfg.Tellers, cfg.Branches, shards)
	}
	return &Partitioner{
		shards:   shards,
		accounts: cfg.Accounts,
		tellers:  cfg.Tellers,
		branches: cfg.Branches,
	}, nil
}

// WithRowsPerShard returns c with the teller and branch relations grown, if
// need be, to one row per shard — what NewPartitioner insists on, and what
// the small scaled configurations (10 tellers, 2 branches) lack on a wide
// array. Callers apply it before sizing anything from the configuration, so
// the generator and the loaded database agree.
func (c Config) WithRowsPerShard(shards int) Config {
	c.Tellers = max(c.Tellers, int64(shards))
	c.Branches = max(c.Branches, int64(shards))
	return c
}

// Shards returns the shard count.
func (p *Partitioner) Shards() int { return p.shards }

// rangeOf returns the [lo, hi) id range of count rows owned by shard s:
// q = count/shards rows each, the first r = count%shards shards one extra.
func rangeOf(count int64, shards, s int) (lo, hi int64) {
	q, r := count/int64(shards), count%int64(shards)
	lo = int64(s) * q
	if int64(s) < r {
		lo += int64(s)
	} else {
		lo += r
	}
	hi = lo + q
	if int64(s) < r {
		hi++
	}
	return lo, hi
}

// shardOf inverts rangeOf: the shard owning id within count rows. The first
// r shards own q+1 rows each, covering ids below (q+1)*r; everything above
// belongs to a q-sized shard.
func shardOf(count int64, shards int, id int64) int {
	q, r := count/int64(shards), count%int64(shards)
	cut := (q + 1) * r
	if id < cut {
		return int(id / (q + 1))
	}
	return int(r + (id-cut)/q)
}

// AccountRange returns shard s's [lo, hi) account id range.
func (p *Partitioner) AccountRange(s int) (int64, int64) { return rangeOf(p.accounts, p.shards, s) }

// TellerRange returns shard s's [lo, hi) teller id range.
func (p *Partitioner) TellerRange(s int) (int64, int64) { return rangeOf(p.tellers, p.shards, s) }

// BranchRange returns shard s's [lo, hi) branch id range.
func (p *Partitioner) BranchRange(s int) (int64, int64) { return rangeOf(p.branches, p.shards, s) }

// ShardOfAccount returns the shard owning an account id.
func (p *Partitioner) ShardOfAccount(id int64) int { return shardOf(p.accounts, p.shards, id) }

// ShardOfTeller returns the shard owning a teller id.
func (p *Partitioner) ShardOfTeller(id int64) int { return shardOf(p.tellers, p.shards, id) }

// ShardOfBranch returns the shard owning a branch id.
func (p *Partitioner) ShardOfBranch(id int64) int { return shardOf(p.branches, p.shards, id) }

// ShardLockSpace is the lock-manager namespace for shard s (see
// libtp.Options.LockSpace): the shard index plus one, shifted clear of any
// realistic inode number or transaction id.
func ShardLockSpace(s int) uint64 { return uint64(s+1) << 48 }

// loadShardRelations bulk-loads shard s's slice of the four relations: the
// account/teller/branch B-trees hold only the globally-numbered rows the
// partitioner assigns to s, and the history file starts empty. Key order is
// preserved because each shard's range is contiguous.
func loadShardRelations(fsys vfs.FileSystem, part *Partitioner, s int) error {
	mkTree := func(path string, lo, hi int64) error {
		f, err := fsys.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		id := lo
		_, err = btree.BulkLoad(pagestore.NewFileStore(f, fsys.BlockSize()), func() ([]byte, []byte, bool) {
			if id >= hi {
				return nil, nil, false
			}
			k, v := Key(id), BalanceRecord(id, 0)
			id++
			return k, v, true
		})
		return err
	}
	lo, hi := part.AccountRange(s)
	if err := mkTree(AccountPath, lo, hi); err != nil {
		return fmt.Errorf("tpcb: load shard %d accounts: %w", s, err)
	}
	lo, hi = part.TellerRange(s)
	if err := mkTree(TellerPath, lo, hi); err != nil {
		return fmt.Errorf("tpcb: load shard %d tellers: %w", s, err)
	}
	lo, hi = part.BranchRange(s)
	if err := mkTree(BranchPath, lo, hi); err != nil {
		return fmt.Errorf("tpcb: load shard %d branches: %w", s, err)
	}
	f, err := fsys.Create(HistoryPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := recno.Create(pagestore.NewFileStore(f, fsys.BlockSize()), HistoryRecordSize); err != nil {
		return fmt.Errorf("tpcb: load shard %d history: %w", s, err)
	}
	return fsys.Sync()
}

// RecoverSharded reopens every shard's environment after a whole-machine
// crash, resolving in-doubt two-phase-commit branches from the union of the
// shards' durable decision records. All logs are scanned before any shard
// replays — a branch prepared on shard A may be decided on shard B, so
// replay cannot start until every decision is known. Pass the shared lock
// manager the revived environments should use.
func RecoverSharded(fss []vfs.FileSystem, clock *sim.Clock, opts libtp.Options, locks *lock.Manager) ([]*libtp.Env, []*libtp.RecoveryReport, error) {
	pend := make([]*libtp.PendingRecovery, len(fss))
	for i, fsys := range fss {
		o := opts
		o.Locks = locks
		o.LockSpace = ShardLockSpace(i)
		p, err := libtp.OpenForRecovery(fsys, clock, o, DBPaths())
		if err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", i, err)
		}
		pend[i] = p
	}
	decided := map[uint64]bool{}
	for _, p := range pend {
		for gid := range p.GlobalDecisions() {
			decided[gid] = true
		}
	}
	resolve := func(gid uint64) bool { return decided[gid] }
	envs := make([]*libtp.Env, len(fss))
	reports := make([]*libtp.RecoveryReport, len(fss))
	for i, p := range pend {
		env, rep, err := p.Complete(resolve)
		if err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", i, err)
		}
		envs[i] = env
		reports[i] = rep
	}
	return envs, reports, nil
}

// VerifyShardedState checks the recovered shards against the shadow history
// of committed transactions, exactly like VerifyState for one file system —
// with the atomicity obligation now spanning shards: the total history
// count across all shards must equal the committed count (or, with a
// non-nil inFlight, exactly one more, in which case every relation on every
// shard must consistently reflect the extra transaction). A cross-shard
// transfer that survived on one shard and vanished on another shows up here
// as a balance mismatch.
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
			if id < lo || id >= hi {
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
		if rows != hi-lo {
			return 0, fmt.Errorf("partition: %s holds %d rows, want %d", path, rows, hi-lo)
		}
		return sum, nil
	}
	check := func(path string, per map[int64]int64, rng func(int) (int64, int64)) error {
		var total int64
		for i, fsys := range fss {
			lo, hi := rng(i)
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
	if err := check(AccountPath, perAccount, part.AccountRange); err != nil {
		return err
	}
	if err := check(TellerPath, perTeller, part.TellerRange); err != nil {
		return err
	}
	return check(BranchPath, perBranch, part.BranchRange)
}
