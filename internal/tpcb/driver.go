package tpcb

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/lock"
	"repro/internal/sim"
)

// Result reports one benchmark run. The json tags are the header keys of the
// end-of-run Snapshot, which embeds it.
type Result struct {
	System     string        `json:"system"`
	Txns       int           `json:"txns"`
	MPL        int           `json:"mpl,omitempty"`     // multiprogramming level (concurrent simulated clients, ≥ 1)
	Retries    int64         `json:"retries,omitempty"` // deadlock-victim retries
	Dispatches int64         `json:"dispatches"`        // scheduler dispatches (deterministic)
	Elapsed    time.Duration `json:"elapsed"`           // simulated time
	TPS        float64       `json:"tps"`
}

func (r Result) String() string {
	out := fmt.Sprintf("%-12s %6d txns in %8.1fs simulated → %6.2f TPS", r.System, r.Txns, r.Elapsed.Seconds(), r.TPS)
	if r.MPL > 1 {
		out += fmt.Sprintf(" (MPL %d, %d deadlock retries)", r.MPL, r.Retries)
	}
	return out
}

// ScanResult is the long-running-reader side of a mixed run: how the scans
// executed (locking vs snapshot) and what they cost the writers.
// WriterElapsed/WriterTPS measure the writer side alone — the fair basis
// for "did the scans slow the writers down", since trailing scans may run
// past the last commit. It is the Snapshot's "scan" section.
type ScanResult struct {
	ScanMode      ScanMode      `json:"mode"`
	Scanners      int           `json:"scanners"`
	Scans         int           `json:"scans"`
	ScanRows      int64         `json:"rows"`
	ScanRetries   int64         `json:"retries,omitempty"` // deadlock-victim scan retries (locking mode only)
	WriterElapsed time.Duration `json:"writer_elapsed"`
	WriterTPS     float64       `json:"writer_tps"`
}

// MixedResult reports a mixed OLTP + scan run. Result covers the whole run
// (writer transactions over total elapsed, scans excluded from TPS).
type MixedResult struct {
	Result
	ScanResult `json:"scan"`
}

func (r MixedResult) String() string {
	return r.Result.String() + fmt.Sprintf(" + %d %s scans (%d rows, %d retries); writers alone: %.2f TPS",
		r.Scans, r.ScanMode, r.ScanRows, r.ScanRetries, r.WriterTPS)
}

// RunMPL executes n transactions spread over mpl concurrent clients: RunMixed
// with no scan clients.
func (r *Rig) RunMPL(cfg Config, n, mpl int) (Result, error) {
	res, err := r.RunMixed(cfg, n, mpl, 0, 0, ScanNone)
	return res.Result, err
}

// RunMixed is the benchmark driver. It executes n transactions spread over
// mpl concurrent clients, each a cooperatively scheduled virtual process
// with its own deterministic transaction stream (ClientSeed), while
// `scanners` concurrent readers each perform `scansEach` full key-order
// account scans in the given mode. Clients contend for the disk, the log
// tail, and page locks in simulated time; a client — or a locking scan —
// that loses deadlock detection aborts and retries, and the retry is
// counted (snapshot scans cannot deadlock). The rig's idle hook (background
// cleaning) runs after each transaction in the issuing client's context.
// Simulated elapsed time includes the final drain of any pending group
// commit; writer completion times are recorded so the result separates
// writer-only throughput from total elapsed.
//
// MPL 1 is one scheduler proc: client 0 keeps the base seed, and a lone proc
// never queues, never blocks, and accrues time exactly as the global clock
// does (TestPinnedSignatures holds its numbers).
//
// With a tracer on the rig every client and scan proc registers for the
// per-proc "where did simulated time go" report, and the drain, which runs
// outside any client, gets a row of its own so its disk and commit time are
// not silently dropped.
func (r *Rig) RunMixed(cfg Config, n, mpl, scanners, scansEach int, mode ScanMode) (MixedResult, error) {
	sys, clock, tr := r.Sys, r.Clock, r.Tracer
	if n < 0 || mpl < 1 || scanners < 0 || scansEach < 0 {
		return MixedResult{}, fmt.Errorf("tpcb: %d transactions, MPL %d, %d scanners of %d scans: want no negative count and MPL at least 1", n, mpl, scanners, scansEach)
	}
	if mode == ScanNone || scansEach <= 0 {
		scanners = 0
	}
	workers := make([]Worker, mpl)
	if mc, ok := sys.(MultiClient); ok {
		for c := range workers {
			w, err := mc.NewWorker()
			if err != nil {
				return MixedResult{}, err
			}
			workers[c] = w
		}
	} else if mpl == 1 {
		workers[0] = sys
	} else {
		return MixedResult{}, fmt.Errorf("tpcb: %s does not support MPL %d (no MultiClient)", sys.Name(), mpl)
	}
	scans := make([]Scanner, scanners)
	effMode := ScanNone
	if scanners > 0 {
		sc, ok := sys.(ScanCapable)
		if !ok {
			return MixedResult{}, fmt.Errorf("tpcb: %s does not support scans", sys.Name())
		}
		for i := range scans {
			var err error
			scans[i], effMode, err = sc.NewScanner(mode)
			if err != nil {
				return MixedResult{}, err
			}
		}
	}

	sched := sim.NewScheduler(clock)
	start := clock.Now()
	errs := make([]error, mpl+scanners)
	retries := make([]int64, mpl+scanners)
	// retrying runs op until it succeeds, counting deadlock-victim retries
	// for proc p: the victim was aborted, and the abort advanced its clock,
	// so the retry happens strictly later.
	retrying := func(p int, op func() error) error {
		for {
			err := op()
			if !errors.Is(err, lock.ErrDeadlock) {
				return err
			}
			retries[p]++
			clock.Yield()
		}
	}
	writerEnd := make([]time.Duration, mpl)
	for c := 0; c < mpl; c++ {
		gen := NewClientGenerator(cfg, c)
		quota := n / mpl
		if c < n%mpl {
			quota++
		}
		name := fmt.Sprintf("client-%d", c)
		sched.Spawn(name, func() {
			tr.ProcStart(name)
			defer tr.ProcEnd()
			defer func() { writerEnd[c] = clock.Now() }()
			for i := 0; i < quota; i++ {
				clock.Yield()
				t := gen.Next()
				if err := retrying(c, func() error { return workers[c].Run(t) }); err != nil {
					errs[c] = fmt.Errorf("tpcb: client %d txn %d on %s: %w", c, i, sys.Name(), err)
					return
				}
				if r.Idle != nil {
					if err := r.Idle(); err != nil {
						errs[c] = fmt.Errorf("tpcb: idle cleaning on %s client %d: %w", sys.Name(), c, err)
						return
					}
				}
			}
		})
	}
	scanRows := make([]int64, scanners)
	scansDone := make([]int, scanners)
	for s := 0; s < scanners; s++ {
		name := fmt.Sprintf("scan-%d", s)
		sched.Spawn(name, func() {
			tr.ProcStart(name)
			defer tr.ProcEnd()
			for k := 0; k < scansEach; k++ {
				clock.Yield()
				// A deadlocked locking scan drops its read locks and
				// restarts from the first key.
				err := retrying(mpl+s, func() error {
					rows, err := scans[s].Scan()
					if err == nil {
						scanRows[s] += rows
						scansDone[s]++
					}
					return err
				})
				if err != nil {
					errs[mpl+s] = fmt.Errorf("tpcb: scan %d on %s: %w", s, sys.Name(), err)
					return
				}
			}
		})
	}
	sched.Run()
	dispatches := sched.Dispatches()
	tr.Metrics().Set("sched.dispatches", dispatches)
	for _, err := range errs {
		if err != nil {
			return MixedResult{}, err
		}
	}
	drain := func() error {
		tr.ProcStart("drain")
		defer tr.ProcEnd()
		return sys.Drain()
	}
	if err := drain(); err != nil {
		return MixedResult{}, err
	}
	elapsed := clock.Now() - start
	res := MixedResult{
		Result:     Result{System: sys.Name(), Txns: n, MPL: mpl, Dispatches: dispatches, Elapsed: elapsed},
		ScanResult: ScanResult{ScanMode: effMode, Scanners: scanners},
	}
	for _, c := range retries[:mpl] {
		res.Retries += c
	}
	for _, e := range writerEnd {
		res.WriterElapsed = max(res.WriterElapsed, e-start)
	}
	for s := 0; s < scanners; s++ {
		res.Scans += scansDone[s]
		res.ScanRows += scanRows[s]
		res.ScanRetries += retries[mpl+s]
	}
	if elapsed > 0 {
		res.TPS = float64(n) / elapsed.Seconds()
	}
	if res.WriterElapsed > 0 {
		res.WriterTPS = float64(n) / res.WriterElapsed.Seconds()
	}
	if tr.Enabled() && scanners > 0 {
		tr.Metrics().Set("scan.count", int64(res.Scans))
		tr.Metrics().Set("scan.rows", res.ScanRows)
		tr.Metrics().Set("scan.retries", res.ScanRetries)
	}
	return res, nil
}
