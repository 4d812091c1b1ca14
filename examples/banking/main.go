// Banking: a miniature TPC-B-style bank on the embedded transaction
// manager, using the B-tree and recno access methods straight on
// transaction-protected files — the paper's motivating scenario where an
// ordinary application gains transactions from the file system without a
// database server.
//
// The example runs a stream of transfers (some of which abort on
// insufficient funds), then proves the invariant: the sum of all balances
// never changes, and the history file holds exactly one record per
// committed transfer.
//
// Run: go run ./examples/banking
package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/lfs"
	"repro/internal/recno"
	"repro/internal/sim"
)

const (
	numAccounts    = 500
	initialBalance = 1000
	transfers      = 300
)

func key(id int64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, uint64(id))
	return b
}

func val(amount int64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(amount))
	return b
}

func amount(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) }

var errInsufficient = errors.New("insufficient funds")

func main() {
	clock := sim.NewClock()
	dev := disk.New(sim.SmallModel(), clock)
	fsys, err := lfs.Format(dev, clock, lfs.Options{})
	if err != nil {
		log.Fatal(err)
	}
	tm := core.New(fsys, clock, core.Options{})
	proc := tm.NewProcess()

	// Load the accounts (offline, non-transactional), then protect.
	accounts, err := tm.Create("/accounts")
	if err != nil {
		log.Fatal(err)
	}
	tr, err := btree.Create(core.NewStore(proc, accounts))
	if err != nil {
		log.Fatal(err)
	}
	for id := int64(0); id < numAccounts; id++ {
		if err := tr.Put(key(id), val(initialBalance)); err != nil {
			log.Fatal(err)
		}
	}
	history, err := tm.Create("/history")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := recno.Create(core.NewStore(proc, history), 32); err != nil {
		log.Fatal(err)
	}
	for _, p := range []string{"/accounts", "/history"} {
		if err := tm.Protect(p); err != nil {
			log.Fatal(err)
		}
	}
	if err := fsys.Sync(); err != nil {
		log.Fatal(err)
	}

	// transfer moves money between two accounts inside one transaction.
	transfer := func(from, to, amt int64) error {
		if err := proc.TxnBegin(); err != nil {
			return err
		}
		t, err := btree.Open(core.NewStore(proc, accounts))
		if err != nil {
			proc.TxnAbort()
			return err
		}
		// Both balances are about to be rewritten, so read them for update:
		// their leaves are write-locked here, not upgraded at the Put (two
		// concurrent transfers upgrading one leaf would deadlock). As in
		// db(3), a value is valid only until the next call on the handle, so
		// each balance is taken out of its record at once.
		bal, err := t.GetForUpdate(key(from))
		if err != nil {
			proc.TxnAbort()
			return err
		}
		src := amount(bal)
		if src < amt {
			// Roll everything back: the locks release, nothing changes
			// on disk.
			proc.TxnAbort()
			return errInsufficient
		}
		if bal, err = t.GetForUpdate(key(to)); err != nil {
			proc.TxnAbort()
			return err
		}
		dst := amount(bal)
		if err := t.Put(key(from), val(src-amt)); err != nil {
			proc.TxnAbort()
			return err
		}
		if err := t.Put(key(to), val(dst+amt)); err != nil {
			proc.TxnAbort()
			return err
		}
		h, err := recno.OpenForAppend(core.NewStore(proc, history))
		if err != nil {
			proc.TxnAbort()
			return err
		}
		rec := make([]byte, 32)
		binary.LittleEndian.PutUint64(rec[0:], uint64(from))
		binary.LittleEndian.PutUint64(rec[8:], uint64(to))
		binary.LittleEndian.PutUint64(rec[16:], uint64(amt))
		if _, err := h.Append(rec); err != nil {
			proc.TxnAbort()
			return err
		}
		return proc.TxnCommit()
	}

	rng := sim.NewRNG(42)
	committed, aborted := 0, 0
	for i := 0; i < transfers; i++ {
		from := rng.Int63n(numAccounts)
		to := rng.Int63n(numAccounts - 1)
		if to >= from {
			to++ // distinct accounts
		}
		amt := rng.Int63n(2000) // sometimes exceeds the balance → abort
		switch err := transfer(from, to, amt); {
		case err == nil:
			committed++
		case errors.Is(err, errInsufficient):
			aborted++
		default:
			log.Fatal(err)
		}
	}

	// Verify the conservation invariant after a crash + remount.
	fs2, err := lfs.Mount(dev, clock, lfs.Options{})
	if err != nil {
		log.Fatal(err)
	}
	tm2 := core.New(fs2, clock, core.Options{})
	proc2 := tm2.NewProcess()
	acc2, err := tm2.Open("/accounts")
	if err != nil {
		log.Fatal(err)
	}
	t2, err := btree.Open(core.NewStore(proc2, acc2))
	if err != nil {
		log.Fatal(err)
	}
	c, err := t2.First()
	if err != nil {
		log.Fatal(err)
	}
	var total int64
	for c.Next() {
		total += amount(c.Value())
	}
	hist2, err := tm2.Open("/history")
	if err != nil {
		log.Fatal(err)
	}
	h2, err := recno.Open(core.NewStore(proc2, hist2))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("transfers: %d committed, %d aborted (insufficient funds)\n", committed, aborted)
	fmt.Printf("history records after crash: %d (want %d)\n", h2.Count(), committed)
	fmt.Printf("total balance after crash:   %d (want %d)\n", total, int64(numAccounts*initialBalance))
	if total != numAccounts*initialBalance || h2.Count() != int64(committed) {
		log.Fatal("invariant violated!")
	}
	fmt.Println("conservation invariant holds across aborts and a crash ✓")
}
