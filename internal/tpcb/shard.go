package tpcb

import (
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
		// One key and one record buffer serve every row: BulkLoad has encoded
		// a pair into its page before it asks for the next.
		id, k, v := lo, Key(lo), BalanceRecord(lo, 0)
		_, err = btree.BulkLoad(pagestore.NewFileStore(f, fsys.BlockSize()), func() ([]byte, []byte, bool) {
			if id >= hi {
				return nil, nil, false
			}
			putKey(k, id)
			putBalanceRecord(v, id, 0)
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
