// Quickstart: transaction-protected files on the log-structured file system.
//
// This example shows the paper's embedded model end to end: mark a file
// transaction-protected, use the ordinary read/write interface inside
// txn_begin/txn_commit/txn_abort, and observe that
//
//   - an aborted transaction's writes vanish (they never reached the log:
//     its buffers stay in memory until commit),
//   - a snapshot reads the file as of its pin without taking a lock, and
//   - a committed transaction survives a crash with no separate database
//     recovery — remounting the file system is the only recovery step.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/lfs"
	"repro/internal/sim"
)

func main() {
	// A simulated 32 MB disk with RZ55-like timing, and a fresh LFS.
	clock := sim.NewClock()
	dev := disk.New(sim.SmallModel(), clock)
	fsys, err := lfs.Format(dev, clock, lfs.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// The embedded transaction manager: the paper's kernel extension.
	tm := core.New(fsys, clock, core.Options{})

	// Create a file and flip its transaction-protection attribute on.
	f, err := tm.Create("/ledger")
	if err != nil {
		log.Fatal(err)
	}
	proc := tm.NewProcess()
	write := func(s string) {
		if _, err := proc.Write(f, []byte(s), 0); err != nil {
			log.Fatal(err)
		}
	}
	write("balance=100")
	if err := tm.Protect("/ledger"); err != nil {
		log.Fatal(err)
	}
	if err := fsys.Sync(); err != nil {
		log.Fatal(err)
	}

	// A transaction that aborts: its write disappears.
	must(proc.TxnBegin())
	write("balance=999")
	must(proc.TxnAbort())
	buf := make([]byte, 11)
	if _, err := proc.Read(f, buf, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after abort:  %s\n", buf) // balance=100

	// A transaction that commits: durable at TxnCommit, no fsync needed.
	must(proc.TxnBegin())
	write("balance=250")
	must(proc.TxnCommit())

	// A snapshot pinned while a transaction is running: that transaction's
	// write, its commit and a write outside any transaction after it all
	// stay invisible to the snapshot, which takes no lock to read.
	must(proc.TxnBegin())
	write("balance=300")
	snap := tm.BeginSnapshot()
	must(proc.TxnCommit())
	write("balance=310")
	page := make([]byte, fsys.BlockSize())
	must(snap.Store(f).ReadPage(0, page))
	snap.Close()
	fmt.Printf("snapshot:     %s\n", page[:len(buf)]) // balance=250

	// Crash: throw away all in-memory state and remount from the device.
	recovered, err := lfs.Mount(dev, clock, lfs.Options{})
	if err != nil {
		log.Fatal(err)
	}
	g, err := recovered.Open("/ledger")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := g.ReadAt(buf, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after crash:  %s\n", buf) // balance=300: the write outside a transaction was never synced
	fmt.Printf("simulated elapsed time: %v\n", clock.Now())
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
