package tpcb

import "fmt"

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
	// (mvcc.Versions, on both systems).
	ScanSnapshot ScanMode = "snapshot"
)

// Scanner runs full key-order scans of the account relation.
type Scanner interface {
	// Scan walks every account record once and returns the row count.
	Scan() (int64, error)
}

// ScanCapable is implemented by systems that support transactional scans.
// NewScanner returns the scanner and the mode it actually runs in: user-level
// on FFS degrades ScanSnapshot to ScanLocking (see TxnSystem.NewScanner).
type ScanCapable interface {
	NewScanner(mode ScanMode) (Scanner, ScanMode, error)
}

// lockScanner scans under two-phase locking: a read-only transaction on a
// client of its own, whose read locks accumulate over every account page
// until the scan commits (the pre-snapshot behavior a long reader imposes on
// writers).
type lockScanner struct {
	s *TxnSystem
	c txnClient
}

func (sc *lockScanner) Scan() (int64, error) {
	if err := sc.c.begin(); err != nil {
		return 0, err
	}
	n, err := countRows(sc.c.store(sc.s.rels[relAccount]))
	if err != nil {
		sc.c.abort()
		return 0, err
	}
	return n, sc.c.commit()
}

// snapScanner scans through a pinned snapshot: zero lock-manager calls,
// pages rewound to the horizon with the manager's before-images.
type snapScanner struct {
	s *TxnSystem
}

func (sc snapScanner) Scan() (int64, error) {
	store, release := sc.s.mgr.pin()
	defer release()
	return countRows(store(sc.s.rels[relAccount]))
}

// NewScanner implements ScanCapable.
func (s *TxnSystem) NewScanner(mode ScanMode) (Scanner, ScanMode, error) {
	switch mode {
	case ScanSnapshot:
		if !s.lockingScans {
			return snapScanner{s}, ScanSnapshot, nil
		}
		return s.NewScanner(ScanLocking)
	case ScanLocking:
		return &lockScanner{s: s, c: s.mgr.newClient()}, ScanLocking, nil
	}
	return nil, ScanNone, fmt.Errorf("tpcb: unknown scan mode %q", mode)
}
