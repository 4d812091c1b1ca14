// Inventory: a warehouse stock tracker keyed by SKU in a B-tree on a
// transaction-protected file. Restocks and orders run as transactions on the
// embedded manager; an order that would oversell aborts and leaves no trace.
//
// Run: go run ./examples/inventory
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
	"repro/internal/sim"
)

var errOversell = errors.New("insufficient stock")

func qty(n int64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(n))
	return b
}

func num(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) }

func main() {
	clock := sim.NewClock()
	dev := disk.New(sim.SmallModel(), clock)
	fsys, err := lfs.Format(dev, clock, lfs.Options{})
	if err != nil {
		log.Fatal(err)
	}
	tm := core.New(fsys, clock, core.Options{})
	proc := tm.NewProcess()

	// Create the inventory table (offline), then protect it.
	f, err := tm.Create("/inventory")
	if err != nil {
		log.Fatal(err)
	}
	table, err := btree.Create(core.NewStore(proc, f))
	if err != nil {
		log.Fatal(err)
	}
	skus := []string{"widget", "gadget", "sprocket", "flange", "grommet"}
	for _, sku := range skus {
		if err := table.Put([]byte(sku), qty(0)); err != nil {
			log.Fatal(err)
		}
	}
	if err := tm.Protect("/inventory"); err != nil {
		log.Fatal(err)
	}
	if err := fsys.Sync(); err != nil {
		log.Fatal(err)
	}

	// restock and order are transactions.
	restock := func(sku string, n int64) error {
		if err := proc.TxnBegin(); err != nil {
			return err
		}
		t, err := btree.Open(core.NewStore(proc, f))
		if err != nil {
			proc.TxnAbort()
			return err
		}
		// Read for update: the leaf page is write-locked here rather than
		// upgraded at the Put (two clients upgrading one leaf deadlock).
		cur, err := t.GetForUpdate([]byte(sku))
		if err != nil {
			proc.TxnAbort()
			return err
		}
		if err := t.Put([]byte(sku), qty(num(cur)+n)); err != nil {
			proc.TxnAbort()
			return err
		}
		return proc.TxnCommit()
	}
	order := func(sku string, n int64) error {
		if err := proc.TxnBegin(); err != nil {
			return err
		}
		t, err := btree.Open(core.NewStore(proc, f))
		if err != nil {
			proc.TxnAbort()
			return err
		}
		cur, err := t.GetForUpdate([]byte(sku))
		if err != nil {
			proc.TxnAbort()
			return err
		}
		if num(cur) < n {
			proc.TxnAbort()
			return errOversell
		}
		if err := t.Put([]byte(sku), qty(num(cur)-n)); err != nil {
			proc.TxnAbort()
			return err
		}
		return proc.TxnCommit()
	}

	rng := sim.NewRNG(7)
	restocks, orders, oversells := 0, 0, 0
	expect := map[string]int64{}
	for i := 0; i < 400; i++ {
		sku := skus[rng.Intn(len(skus))]
		n := 1 + rng.Int63n(20)
		if rng.Intn(2) == 0 {
			if err := restock(sku, n); err != nil {
				log.Fatal(err)
			}
			expect[sku] += n
			restocks++
		} else {
			switch err := order(sku, n); {
			case err == nil:
				expect[sku] -= n
				orders++
			case errors.Is(err, errOversell):
				oversells++
			default:
				log.Fatal(err)
			}
		}
	}

	// Crash, remount, verify every SKU.
	fs2, err := lfs.Mount(dev, clock, lfs.Options{})
	if err != nil {
		log.Fatal(err)
	}
	tm2 := core.New(fs2, clock, core.Options{})
	proc2 := tm2.NewProcess()
	f2, err := tm2.Open("/inventory")
	if err != nil {
		log.Fatal(err)
	}
	t2, err := btree.Open(core.NewStore(proc2, f2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d restocks, %d orders filled, %d rejected (insufficient stock)\n", restocks, orders, oversells)
	for _, sku := range skus {
		v, err := t2.Get([]byte(sku))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s stock=%4d (want %4d)\n", sku, num(v), expect[sku])
		if num(v) != expect[sku] {
			log.Fatal("stock mismatch after crash!")
		}
	}
	fmt.Println("all stock levels survived the crash ✓")
}
