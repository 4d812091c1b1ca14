package tpcb

import (
	"fmt"

	"repro/internal/core"
)

// ScanMode selects how a long-running reader executes against the OLTP
// stream.
type ScanMode string

const (
	// ScanNone runs no scans (the plain TPC-B baseline).
	ScanNone ScanMode = "none"
	// ScanLocking runs each scan as an ordinary two-phase-locking
	// transaction: the scan read-locks every account page it touches and
	// holds the locks to the end of the scan, serializing against writers.
	ScanLocking ScanMode = "locking"
	// ScanSnapshot runs each scan as a read-only multiversion snapshot:
	// no page locks at all, rewinding each page to the horizon pinned at
	// scan start with the before-images the transaction manager keeps
	// (mvcc.DeltaMap, on both systems).
	ScanSnapshot ScanMode = "snapshot"
)

// Scanner runs full key-order scans of the account relation.
type Scanner interface {
	// Scan walks every account record once and returns the row count.
	Scan() (int64, error)
}

// ScanCapable is implemented by systems that support transactional scans.
// NewScanner returns the scanner and the mode it actually runs in: user-level
// on FFS degrades ScanSnapshot to ScanLocking (see UserSystem.NewScanner).
type ScanCapable interface {
	NewScanner(mode ScanMode) (Scanner, ScanMode, error)
}

// --- user-level scanners ---

// userLockScanner scans under two-phase locking: a plain read-only
// transaction whose read locks accumulate over every account page until the
// scan commits (the pre-snapshot behavior a long reader imposes on
// writers).
type userLockScanner struct {
	sh *userShard
}

func (sc *userLockScanner) Scan() (int64, error) {
	txn := sc.sh.env.Begin()
	n, err := countRows(txn.Store(sc.sh.acc))
	if err != nil {
		txn.Abort()
		return 0, err
	}
	return n, txn.Commit()
}

// userSnapScanner scans through a pinned snapshot: zero lock-manager calls,
// pages rewound to the commit horizon with WAL before-images.
type userSnapScanner struct {
	sh *userShard
}

func (sc *userSnapScanner) Scan() (int64, error) {
	snap := sc.sh.env.BeginSnapshot()
	defer snap.Close()
	return countRows(snap.Store(sc.sh.acc))
}

// NewScanner implements ScanCapable for the single-shard system; a
// partitioned system has no transactional scan (a consistent one would need
// a snapshot horizon agreed across the shards' logs). On FFS, snapshot scans
// degrade to locking. Before-images work on any file system, but locking
// measured faster there (DESIGN.md §12).
func (s *UserSystem) NewScanner(mode ScanMode) (Scanner, ScanMode, error) {
	if len(s.shards) > 1 {
		return nil, ScanNone, fmt.Errorf("tpcb: %s does not support scans", s.label)
	}
	sh := s.shards[0]
	switch mode {
	case ScanLocking:
		return &userLockScanner{sh}, ScanLocking, nil
	case ScanSnapshot:
		if sh.env.FS().Name() != "lfs" {
			return &userLockScanner{sh}, ScanLocking, nil
		}
		return &userSnapScanner{sh}, ScanSnapshot, nil
	}
	return nil, ScanNone, fmt.Errorf("tpcb: unknown scan mode %q", mode)
}

// --- kernel scanners ---

// kernelLockScanner is a read-only kernel transaction on its own process
// (restriction 3: transactions may not span processes): every page read
// acquires a kernel read lock held to commit.
type kernelLockScanner struct {
	s    *EmbeddedSystem
	proc *core.Process
}

func (sc *kernelLockScanner) Scan() (int64, error) {
	if err := sc.proc.TxnBegin(); err != nil {
		return 0, err
	}
	n, err := countRows(core.NewStore(sc.proc, sc.s.acc))
	if err != nil {
		sc.proc.TxnAbort()
		return 0, err
	}
	return n, sc.proc.TxnCommit()
}

// kernelSnapScanner scans through a kernel snapshot: pages are rewound to
// the horizon with the embedded manager's in-memory before-images.
type kernelSnapScanner struct {
	s *EmbeddedSystem
}

func (sc *kernelSnapScanner) Scan() (int64, error) {
	snap := sc.s.m.BeginSnapshot()
	defer snap.Close()
	return countRows(snap.Store(sc.s.acc))
}

// NewScanner implements ScanCapable.
func (s *EmbeddedSystem) NewScanner(mode ScanMode) (Scanner, ScanMode, error) {
	switch mode {
	case ScanLocking:
		return &kernelLockScanner{s: s, proc: s.m.NewProcess()}, ScanLocking, nil
	case ScanSnapshot:
		return &kernelSnapScanner{s: s}, ScanSnapshot, nil
	}
	return nil, ScanNone, fmt.Errorf("tpcb: unknown scan mode %q", mode)
}
