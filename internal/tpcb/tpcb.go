// Package tpcb implements the modified TPC-B benchmark of §5.1: account,
// teller, and branch relations as primary B-tree indices, the history
// relation as a fixed-length record file, a single log, a single node, and
// a multiprogramming level of one ("providing a worst-case analysis").
//
// Each transaction withdraws a random amount from a random account and
// updates the corresponding teller and branch balances, then appends a
// history record. The same workload runs on three configurations:
//
//   - user-level transaction manager (LIBTP) on the read-optimized FS,
//   - user-level transaction manager on LFS,
//   - kernel transaction manager embedded in LFS,
//
// which are the three bars of Figure 4.
package tpcb

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/sim"
)

// Paper scaling rules for a 10 TPS system (§5.1).
const (
	PaperAccounts = 1000000
	PaperTellers  = 100
	PaperBranches = 10
)

// Record sizes: TPC-B prescribes 100-byte account/teller/branch records and
// 50-byte history records.
const (
	BalanceRecordSize = 100
	HistoryRecordSize = 50
)

// Config sizes the database.
type Config struct {
	Accounts int64
	Tellers  int64
	Branches int64
	// Seed drives the deterministic account/teller selection.
	Seed uint64
}

// CheckScale rejects a scale factor, named by its flag, that is not a
// finite positive number.
func CheckScale(flag string, v float64) error {
	if !(v > 0) || math.IsInf(v, 1) {
		return fmt.Errorf("%s %g: want a finite positive scale factor", flag, v)
	}
	return nil
}

// ScaledConfig returns the paper's sizing multiplied by scale (scale 1.0 =
// the full 1,000,000-account database; the benchmark default is 0.1).
func ScaledConfig(scale float64) Config {
	c := Config{
		Accounts: int64(float64(PaperAccounts) * scale),
		Tellers:  int64(float64(PaperTellers) * scale),
		Branches: int64(float64(PaperBranches) * scale),
		Seed:     1993,
	}
	if c.Accounts < 100 {
		c.Accounts = 100
	}
	if c.Tellers < 10 {
		c.Tellers = 10
	}
	if c.Branches < 2 {
		c.Branches = 2
	}
	return c
}

// Key encodes an id as a big-endian key so B-tree order equals numeric
// order (the SCAN test reads the account file "in key order").
func Key(id int64) []byte {
	b := make([]byte, 8)
	putKey(b, id)
	return b
}

// putKey encodes id's key into b, 8 bytes long.
func putKey(b []byte, id int64) { binary.BigEndian.PutUint64(b, uint64(id)) }

// BalanceRecord encodes a 100-byte balance record.
func BalanceRecord(id, balance int64) []byte {
	b := make([]byte, BalanceRecordSize)
	putBalanceRecord(b, id, balance)
	return b
}

// putBalanceRecord encodes a balance record into b, BalanceRecordSize bytes
// long, whose filler bytes past the two fields are already zero.
func putBalanceRecord(b []byte, id, balance int64) {
	le := binary.LittleEndian
	le.PutUint64(b[0:], uint64(id))
	le.PutUint64(b[8:], uint64(balance))
}

// Balance extracts the balance from a balance record.
func Balance(rec []byte) int64 {
	return int64(binary.LittleEndian.Uint64(rec[8:]))
}

// SetBalance updates the balance field in place.
func SetBalance(rec []byte, balance int64) {
	binary.LittleEndian.PutUint64(rec[8:], uint64(balance))
}

// HistoryRecord encodes a 50-byte history record: account, teller, branch,
// amount, timestamp.
func HistoryRecord(account, teller, branch, amount, now int64) []byte {
	b := make([]byte, HistoryRecordSize)
	le := binary.LittleEndian
	le.PutUint64(b[0:], uint64(account))
	le.PutUint64(b[8:], uint64(teller))
	le.PutUint64(b[16:], uint64(branch))
	le.PutUint64(b[24:], uint64(amount))
	le.PutUint64(b[32:], uint64(now))
	return b
}

// Txn describes one generated transaction.
type Txn struct {
	Account int64
	Teller  int64
	Branch  int64
	Amount  int64
}

// Generator produces the deterministic transaction stream.
type Generator struct {
	cfg Config
	rng *sim.RNG
}

// NewGenerator returns a generator for cfg.
func NewGenerator(cfg Config) *Generator {
	return &Generator{cfg: cfg, rng: sim.NewRNG(cfg.Seed)}
}

// ClientSeed derives the deterministic RNG seed for one client of a
// multiprogramming run. Client 0 keeps the base seed unchanged, so a
// single-client run replays the historical MPL=1 transaction stream byte
// for byte; every other client gets an independent stream from a
// SplitMix64-style scramble of (seed, client).
func ClientSeed(seed uint64, client int) uint64 {
	if client == 0 {
		return seed
	}
	z := seed + 0x9e3779b97f4a7c15*uint64(client)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewClientGenerator returns client's deterministic transaction stream for
// a multiprogramming run.
func NewClientGenerator(cfg Config, client int) *Generator {
	c := cfg
	c.Seed = ClientSeed(cfg.Seed, client)
	return NewGenerator(c)
}

// Next returns the next transaction. Tellers map to branches by division,
// as in the TPC-B hierarchy.
func (g *Generator) Next() Txn {
	teller := g.rng.Int63n(g.cfg.Tellers)
	branchOfTeller := teller * g.cfg.Branches / g.cfg.Tellers
	account := g.rng.Int63n(g.cfg.Accounts)
	return Txn{
		Account: account,
		Teller:  teller,
		Branch:  branchOfTeller,
		Amount:  g.rng.Int63n(1999999) - 999999, // TPC-B delta range
	}
}

// System abstracts the three measured configurations: load the database,
// run one transaction, and force any pending group commit.
type System interface {
	// Name identifies the configuration (e.g. "user-ffs", "user-lfs",
	// "kernel-lfs").
	Name() string
	// Load creates and populates the four relations.
	Load(cfg Config) error
	// Run executes one TPC-B transaction.
	Run(t Txn) error
	// Drain completes any pending group commit.
	Drain() error
	// ScanAccounts reads the account relation in key order, returning the
	// number of records seen (the §5.3 SCAN test).
	ScanAccounts() (int64, error)
}

// Worker is one client's execution context in a multiprogramming run: it
// executes transactions against the shared system state. A System is itself
// a Worker (its Run method), which suffices at MPL = 1.
type Worker interface {
	// Run executes one TPC-B transaction.
	Run(t Txn) error
}

// MultiClient is implemented by systems that can serve several concurrent
// clients, each through its own Worker (its own kernel process, in the
// embedded system's terms). The driver requires it at MPL > 1.
type MultiClient interface {
	// NewWorker returns a fresh per-client execution context sharing the
	// system's database state.
	NewWorker() (Worker, error)
}

// Validate checks a configuration.
func (c Config) Validate() error {
	if c.Accounts <= 0 || c.Tellers <= 0 || c.Branches <= 0 {
		return fmt.Errorf("tpcb: invalid config %+v", c)
	}
	return nil
}
