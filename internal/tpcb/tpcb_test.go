package tpcb

import (
	"testing"

	"repro/internal/btree"
	"repro/internal/pagestore"
	"repro/internal/recno"
	"repro/internal/sim"
)

func smallCfg() Config {
	return Config{Accounts: 2000, Tellers: 20, Branches: 4, Seed: 7}
}

func buildSmall(t *testing.T, kind string) *Rig {
	t.Helper()
	rig, err := BuildRig(RigOptions{Kind: kind, Config: smallCfg(), ExpectedTxns: 500})
	if err != nil {
		t.Fatalf("BuildRig(%s): %v", kind, err)
	}
	return rig
}

func TestGeneratorDeterministic(t *testing.T) {
	g1, g2 := NewGenerator(smallCfg()), NewGenerator(smallCfg())
	for i := 0; i < 100; i++ {
		if g1.Next() != g2.Next() {
			t.Fatal("generator must be deterministic")
		}
	}
}

func TestGeneratorRanges(t *testing.T) {
	cfg := smallCfg()
	g := NewGenerator(cfg)
	for i := 0; i < 1000; i++ {
		tx := g.Next()
		if tx.Account < 0 || tx.Account >= cfg.Accounts {
			t.Fatalf("account %d out of range", tx.Account)
		}
		if tx.Teller < 0 || tx.Teller >= cfg.Tellers {
			t.Fatalf("teller %d out of range", tx.Teller)
		}
		if tx.Branch < 0 || tx.Branch >= cfg.Branches {
			t.Fatalf("branch %d out of range", tx.Branch)
		}
	}
}

func TestRecordEncoding(t *testing.T) {
	rec := BalanceRecord(42, -12345)
	if len(rec) != BalanceRecordSize {
		t.Fatalf("record size %d", len(rec))
	}
	if Balance(rec) != -12345 {
		t.Fatalf("Balance = %d", Balance(rec))
	}
	SetBalance(rec, 999)
	if Balance(rec) != 999 {
		t.Fatalf("after SetBalance: %d", Balance(rec))
	}
	h := HistoryRecord(1, 2, 3, 4, 5)
	if len(h) != HistoryRecordSize {
		t.Fatalf("history size %d", len(h))
	}
}

func TestScaledConfig(t *testing.T) {
	c := ScaledConfig(1.0)
	if c.Accounts != PaperAccounts || c.Tellers != PaperTellers || c.Branches != PaperBranches {
		t.Fatalf("full scale = %+v", c)
	}
	c = ScaledConfig(0.0001) // floors kick in
	if c.Accounts < 100 || c.Tellers < 10 || c.Branches < 2 {
		t.Fatalf("floored scale = %+v", c)
	}
}

// checkConsistency verifies TPC-B invariants after a run: the sum of branch
// balances equals the sum of teller balances equals the sum of all history
// amounts, and the history has one record per transaction.
func checkConsistency(t *testing.T, rig *Rig, txns []Txn) {
	t.Helper()
	fsys := rig.FS
	sumTree := func(path string) int64 {
		f, err := fsys.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		tr, err := btree.Open(pagestore.NewFileStore(f, fsys.BlockSize()))
		if err != nil {
			t.Fatal(err)
		}
		c, err := tr.First()
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for c.Next() {
			sum += Balance(c.Value())
		}
		return sum
	}
	var want int64
	accountDelta := map[int64]int64{}
	for _, tx := range txns {
		want += tx.Amount
		accountDelta[tx.Account] += tx.Amount
	}
	if got := sumTree(BranchPath); got != want {
		t.Errorf("branch balance sum = %d, want %d", got, want)
	}
	if got := sumTree(TellerPath); got != want {
		t.Errorf("teller balance sum = %d, want %d", got, want)
	}
	if got := sumTree(AccountPath); got != want {
		t.Errorf("account balance sum = %d, want %d", got, want)
	}
}

func TestTPCBConsistencyAllSystems(t *testing.T) {
	for _, kind := range []string{"user-ffs", "user-lfs", "kernel-lfs"} {
		t.Run(kind, func(t *testing.T) {
			rig := buildSmall(t, kind)
			gen := NewGenerator(smallCfg())
			var txns []Txn
			for i := 0; i < 200; i++ {
				tx := gen.Next()
				txns = append(txns, tx)
				if err := rig.Sys.Run(tx); err != nil {
					t.Fatalf("txn %d: %v", i, err)
				}
			}
			if err := rig.Sys.Drain(); err != nil {
				t.Fatal(err)
			}
			checkConsistency(t, rig, txns)
			n, err := rig.Sys.ScanAccounts()
			if err != nil || n != smallCfg().Accounts {
				t.Fatalf("ScanAccounts = %d, %v", n, err)
			}
		})
	}
}

func TestSystemsProduceIdenticalState(t *testing.T) {
	// The same seed must leave the same account balances on every
	// configuration — a strong cross-validation of the two transaction
	// managers.
	balances := map[string]map[int64]int64{}
	for _, kind := range []string{"user-ffs", "user-lfs", "kernel-lfs"} {
		rig := buildSmall(t, kind)
		gen := NewGenerator(smallCfg())
		for i := 0; i < 150; i++ {
			if err := rig.Sys.Run(gen.Next()); err != nil {
				t.Fatal(err)
			}
		}
		rig.Sys.Drain()
		f, err := rig.FS.Open(AccountPath)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := btree.Open(pagestore.NewFileStore(f, rig.FS.BlockSize()))
		if err != nil {
			t.Fatal(err)
		}
		c, _ := tr.First()
		m := map[int64]int64{}
		var id int64
		for c.Next() {
			if b := Balance(c.Value()); b != 0 {
				m[id] = b
			}
			id++
		}
		f.Close()
		balances[kind] = m
	}
	ref := balances["user-ffs"]
	for _, kind := range []string{"user-lfs", "kernel-lfs"} {
		m := balances[kind]
		if len(m) != len(ref) {
			t.Fatalf("%s: %d nonzero balances, want %d", kind, len(m), len(ref))
		}
		for id, b := range ref {
			if m[id] != b {
				t.Fatalf("%s: account %d = %d, want %d", kind, id, m[id], b)
			}
		}
	}
}

func TestRunMPLReportsTPS(t *testing.T) {
	rig := buildSmall(t, "kernel-lfs")
	res, err := rig.RunMPL(smallCfg(), 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Txns != 50 || res.Elapsed <= 0 || res.TPS <= 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestBuildRigRejectsUnknownKind(t *testing.T) {
	if _, err := BuildRig(RigOptions{Kind: "nope", Config: smallCfg()}); err == nil {
		t.Fatal("unknown kind should fail")
	}
}

// TestGroupCommitRig: with one client nobody can join a batch, so on every
// system a GroupCommit above 1 changes nothing — each commit is forced by
// itself before Run returns.
func TestGroupCommitRig(t *testing.T) {
	for _, kind := range []string{"user-ffs", "user-lfs", "kernel-lfs"} {
		t.Run(kind, func(t *testing.T) {
			rig, err := BuildRig(RigOptions{Kind: kind, Config: smallCfg(), GroupCommit: 5, ExpectedTxns: 500})
			if err != nil {
				t.Fatal(err)
			}
			gen := NewGenerator(smallCfg())
			var txns []Txn
			for i := 0; i < 100; i++ {
				tx := gen.Next()
				txns = append(txns, tx)
				if err := rig.Sys.Run(tx); err != nil {
					t.Fatal(err)
				}
			}
			if rig.Core != nil {
				if st := rig.Core.Stats(); st.Committed != 100 || st.CommitFlush != 100 {
					t.Fatalf("%d commits in %d flushes before the drain, want 100 in 100", st.Committed, st.CommitFlush)
				}
			} else if st := rig.WALStats(); st.GroupCommits != 0 || st.Forces < 100 {
				t.Fatalf("%d log forces, %d commits waited on another's: want every one of 100 forced by itself", st.Forces, st.GroupCommits)
			}
			if err := rig.Sys.Drain(); err != nil {
				t.Fatal(err)
			}
			checkConsistency(t, rig, txns)
		})
	}
}

func TestHistoryGrows(t *testing.T) {
	rig := buildSmall(t, "user-lfs")
	gen := NewGenerator(smallCfg())
	for i := 0; i < 30; i++ {
		if err := rig.Sys.Run(gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	rig.Sys.Drain()
	f, err := rig.FS.Open(HistoryPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	hf, err := recno.Open(pagestore.NewFileStore(f, rig.FS.BlockSize()))
	if err != nil {
		t.Fatal(err)
	}
	if hf.Count() != 30 {
		t.Fatalf("history count = %d, want 30", hf.Count())
	}
}

func TestSimClockMonotoneUnderLoad(t *testing.T) {
	rig := buildSmall(t, "user-ffs")
	gen := NewGenerator(smallCfg())
	prev := rig.Clock.Now()
	for i := 0; i < 20; i++ {
		if err := rig.Sys.Run(gen.Next()); err != nil {
			t.Fatal(err)
		}
		now := rig.Clock.Now()
		if now < prev {
			t.Fatal("clock went backwards")
		}
		prev = now
	}
	_ = sim.NewRNG(0)
}
