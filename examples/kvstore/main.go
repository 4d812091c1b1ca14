// KVStore: a crash-recoverable key-value store on the USER-LEVEL transaction
// system (Figure 2 of the paper) — LIBTP-style write-ahead logging and
// two-phase locking over a B-tree, running on the log-structured file
// system. This is the architecture the paper compares the embedded manager
// against: note the explicit log, the user-level buffer pool, and the
// recovery pass (RecoverPaths) that the embedded model makes unnecessary.
//
// Run: go run ./examples/kvstore
package main

import (
	"fmt"
	"log"

	"repro/internal/btree"
	"repro/internal/disk"
	"repro/internal/lfs"
	"repro/internal/libtp"
	"repro/internal/sim"
)

// Store is a tiny transactional KV API over LIBTP.
type Store struct {
	env *libtp.Env
	db  *libtp.DB
}

// Open creates or opens the store.
func Open(env *libtp.Env) (*Store, error) {
	db, err := env.OpenDB("/kv.db")
	if err != nil {
		return nil, err
	}
	// Initialize the tree if the database is empty.
	txn := env.Begin()
	st := txn.Store(db)
	if n, err := st.NumPages(); err != nil {
		txn.Abort()
		return nil, err
	} else if n == 0 {
		if _, err := btree.Create(st); err != nil {
			txn.Abort()
			return nil, err
		}
	}
	if err := txn.Commit(); err != nil {
		return nil, err
	}
	return &Store{env: env, db: db}, nil
}

// Put stores key=value in its own transaction.
func (s *Store) Put(key, value string) error {
	txn := s.env.Begin()
	t, err := btree.Open(txn.Store(s.db))
	if err != nil {
		txn.Abort()
		return err
	}
	if err := t.Put([]byte(key), []byte(value)); err != nil {
		txn.Abort()
		return err
	}
	return txn.Commit()
}

// Get reads a key in its own transaction.
func (s *Store) Get(key string) (string, error) {
	txn := s.env.Begin()
	defer txn.Commit()
	t, err := btree.Open(txn.Store(s.db))
	if err != nil {
		return "", err
	}
	v, err := t.Get([]byte(key))
	if err != nil {
		return "", err
	}
	return string(v), nil
}

func main() {
	clock := sim.NewClock()
	dev := disk.New(sim.SmallModel(), clock)
	fsys, err := lfs.Format(dev, clock, lfs.Options{})
	if err != nil {
		log.Fatal(err)
	}
	env, err := libtp.NewEnv(fsys, clock, libtp.Options{})
	if err != nil {
		log.Fatal(err)
	}
	store, err := Open(env)
	if err != nil {
		log.Fatal(err)
	}

	// Commit some durable writes.
	for i := 0; i < 20; i++ {
		if err := store.Put(fmt.Sprintf("user:%02d", i), fmt.Sprintf("account-%d", i*7)); err != nil {
			log.Fatal(err)
		}
	}

	// Change of mind: Abort puts the update's before-image back in the
	// cached page and logs it as a compensation record, so recovery replays
	// the rollback in log order instead of undoing it.
	undone := env.Begin()
	tree, err := btree.Open(undone.Store(store.db))
	if err != nil {
		log.Fatal(err)
	}
	if err := tree.Put([]byte("user:03"), []byte("OVERDRAWN")); err != nil {
		log.Fatal(err)
	}
	if err := undone.Abort(); err != nil {
		log.Fatal(err)
	}
	got, err := store.Get("user:03")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("user:03 after abort = %q (update rolled back)\n", got)

	// Start a transaction and CRASH before it commits: its updates are in
	// the write-ahead log (forced by an eviction or not at all), but no
	// commit record exists — recovery must roll it back.
	loser := env.Begin()
	t, err := btree.Open(loser.Store(store.db))
	if err != nil {
		log.Fatal(err)
	}
	if err := t.Put([]byte("user:05"), []byte("STOLEN")); err != nil {
		log.Fatal(err)
	}
	// (no Commit — the machine dies here)

	// Crash: remount the file system and run LIBTP recovery.
	fs2, err := lfs.Mount(dev, clock, lfs.Options{})
	if err != nil {
		log.Fatal(err)
	}
	env2, report, err := libtp.RecoverPaths(fs2, clock, libtp.Options{}, []string{"/kv.db"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovery: %d winners redone, %d losers undone\n", report.Winners, report.Losers)

	store2, err := Open(env2)
	if err != nil {
		log.Fatal(err)
	}
	v, err := store2.Get("user:05")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("user:05 after crash = %q (uncommitted update rolled back)\n", v)
	v, err = store2.Get("user:19")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("user:19 after crash = %q (committed data preserved)\n", v)
	fmt.Printf("simulated elapsed time: %v\n", clock.Now())
}
