// rigs.go is the benchmark's adapter to the program under test: the only
// file in this package that imports repro/internal/.... Everything else in
// the package works on the plain records this file fills in, so a harness
// refactor (ROADMAP item 4) knows exactly what the benchmark holds still.
//
// Pinned entry points:
//
//	tpcb.ScaledConfig, tpcb.BuildRig, tpcb.RigOptions
//	tpcb.Rig.{Sys, Clock, FS, LFS, Env, Core, Devs, Tracer, LockStats}
//	tpcb.Rig.RunMPL, tpcb.Rig.RunMixed and their Result, MixedResult
//	tpcb.System, tpcb.Worker, tpcb.MultiClient, tpcb.Scanner, tpcb.ScanCapable
//	tpcb.Txn, tpcb.Balance, tpcb.{Account,Teller,Branch,History}Path
//	Stats() of disk.Device, lfs.FS, ffs.FS and core.Manager,
//	libtp.Env.{Stats, LogStats}
//	trace.Tracer.{Attribution, Metrics, WriteChrome}, the registry's
//	buffer.<pool>.{hit,miss} counters and txn.commitWait histogram
//	sim.WallNow, sim.Clock.Now
//	for the audit: vfs.FileSystem.{Open, BlockSize}, pagestore.NewFileStore,
//	btree.Open and its cursor, recno.Open
//
// and, for the single-layer probes only, the public constructors and hot
// calls of lock, buffer, btree, pagestore, wal, disk, lfs and sim, with
// tpcb.Key and tpcb.BalanceRecord for the records.
//
// Nothing here reaches into unexported state: every number is taken from
// outside the program, by wrapping Rig.Sys with a timing decorator, by
// sampling each layer's Stats() before and after the measured interval, by
// switching on RigOptions.Trace, and by timing direct calls.
package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/ffs"
	"repro/internal/lfs"
	"repro/internal/lock"
	"repro/internal/pagestore"
	"repro/internal/recno"
	"repro/internal/sim"
	"repro/internal/tpcb"
	"repro/internal/trace"
	"repro/internal/wal"
)

// systems are the paper's three configurations (Figure 4), in the order
// every workload runs them.
var systems = []string{"user-ffs", "user-lfs", "kernel-lfs"}

// wallNow is the benchmark's only wall-clock source (simlint's walltime rule
// allows wall reads through sim.WallNow alone).
func wallNow() time.Time { return sim.WallNow() }

// rigOptions translates a workload into the rig one system runs it on.
func rigOptions(w workload, kind string, seed uint64, traced bool) tpcb.RigOptions {
	cfg := tpcb.ScaledConfig(w.Scale)
	cfg.Seed = seed
	opts := tpcb.RigOptions{
		Kind:         kind,
		Config:       cfg,
		GroupCommit:  w.GroupCommit,
		ExpectedTxns: max(w.N, w.RigTxns),
		CacheBlocks:  w.CacheBlocks,
		DiskScale:    w.DiskScale,
		Trace:        traced,
	}
	if kind != "user-ffs" && w.LFSDiskScale > 0 {
		opts.DiskScale = w.LFSDiskScale
	}
	if slices.Contains(w.IdleCleaner, kind) {
		opts.CleanerMode = "idle"
	}
	return opts
}

// --- timing decorator ---

// timedSystem wraps the rig's System so the benchmark sees every call the
// drivers make: it times each transaction from its first attempt to its
// successful return on the simulated clock, counts attempts, remembers what
// committed for the audit, and forwards MultiClient and ScanCapable so the
// drivers treat it exactly like the system it wraps (they run every client,
// MPL 1 included, through NewWorker). It only reads the clock, so the
// simulated outcome is unchanged.
type timedSystem struct {
	tpcb.System
	clock   *sim.Clock
	rec     *recorder
	clients int // ids handed out to workers and scanners
}

// timedWorker is one client's decorated execution context.
type timedWorker struct {
	inner tpcb.Worker
	sys   *timedSystem
	op    openOp
}

// openOp tracks one client's operation across deadlock retries.
type openOp struct {
	client int
	open   bool
	start  time.Duration // simulated start of the first attempt
	span   int           // the operation's span in a traced pass
}

// attempt is one call into the program on behalf of an openOp.
type attempt struct {
	start time.Duration
	wall  time.Time
}

// begin notes an attempt of op, opening the operation on its first.
func (s *timedSystem) begin(op *openOp, name string) attempt {
	a := attempt{start: s.clock.Now()}
	first := !op.open
	if first {
		op.open, op.start = true, a.start
	}
	if sp := s.rec.spans; sp != nil {
		if first {
			op.span = sp.add(span{Name: name, Parent: sp.run, Client: op.client, Start: a.start})
		}
		a.wall = wallNow()
	}
	return a
}

// end closes an attempt. When the operation is done (it succeeded) it is
// closed too, and its whole simulated latency, retries included, returned.
func (s *timedSystem) end(op *openOp, a attempt, done bool) time.Duration {
	now := s.clock.Now()
	if sp := s.rec.spans; sp != nil {
		sp.add(span{Name: "attempt", Parent: op.span, Client: op.client, Start: a.start, End: now, Wall: wallNow().Sub(a.wall)})
		if done {
			sp.close(op.span, now)
		}
	}
	if done {
		op.open = false
	}
	return now - op.start
}

func (w *timedWorker) Run(t tpcb.Txn) error {
	s := w.sys
	a := s.begin(&w.op, "txn")
	s.rec.attempts++
	err := w.inner.Run(t)
	lat := s.end(&w.op, a, err == nil)
	if err == nil {
		s.rec.commit(t.Account, t.Teller, t.Branch, t.Amount, lat)
	}
	return err
}

// NewWorker implements tpcb.MultiClient.
func (s *timedSystem) NewWorker() (tpcb.Worker, error) {
	mc, ok := s.System.(tpcb.MultiClient)
	if !ok {
		return nil, fmt.Errorf("%s does not serve concurrent clients", s.Name())
	}
	inner, err := mc.NewWorker()
	if err != nil {
		return nil, err
	}
	w := &timedWorker{inner: inner, sys: s, op: openOp{client: s.clients}}
	s.clients++
	return w, nil
}

// timedScanner times full account scans the same way.
type timedScanner struct {
	inner tpcb.Scanner
	sys   *timedSystem
	op    openOp
}

func (sc *timedScanner) Scan() (int64, error) {
	s := sc.sys
	a := s.begin(&sc.op, "scan")
	rows, err := sc.inner.Scan()
	lat := s.end(&sc.op, a, err == nil)
	if err == nil {
		s.rec.scans = append(s.rec.scans, lat)
		s.rec.scanRows += rows
	}
	return rows, err
}

// NewScanner implements tpcb.ScanCapable.
func (s *timedSystem) NewScanner(mode tpcb.ScanMode) (tpcb.Scanner, tpcb.ScanMode, error) {
	sc, ok := s.System.(tpcb.ScanCapable)
	if !ok {
		return nil, tpcb.ScanNone, fmt.Errorf("%s does not support scans", s.Name())
	}
	inner, eff, err := sc.NewScanner(mode)
	if err != nil {
		return nil, eff, err
	}
	ts := &timedScanner{inner: inner, sys: s, op: openOp{client: s.clients}}
	s.clients++
	return ts, eff, nil
}

// Drain forwards the drivers' final drain, recording it as a span.
func (s *timedSystem) Drain() error {
	start := s.clock.Now()
	err := s.System.Drain()
	if sp := s.rec.spans; sp != nil {
		sp.add(span{Name: "drain", Parent: sp.run, Client: -1, Start: start, End: s.clock.Now()})
	}
	return err
}

// --- layer counters ---

// sample reads every layer's public counters into the benchmark's flat
// counter record. Counts are cumulative since format; the pass takes the
// difference of two samples around the measured interval.
func sample(rig *tpcb.Rig) counters {
	var c counters
	c[cSimNS] = int64(rig.Clock.Now())
	for _, d := range rig.Devs {
		ds := d.Stats()
		c[cDiskReads] += ds.Reads
		c[cDiskWrites] += ds.Writes
		c[cDiskBlocksWritten] += ds.BlocksWrit
		c[cDiskBusyNS] += int64(ds.BusyTime)
		c[cDiskQueueNS] += int64(ds.QueueTime)
	}
	ls := rig.LockStats()
	c[cLockWaits] = ls.Waited
	c[cLockBlockedNS] = int64(ls.BlockedTime)
	c[cLockAborts] = ls.DeadlockAborts
	c[cLockUpgrades] = ls.Upgrades
	if rig.Env != nil {
		ws := rig.Env.LogStats()
		c[cWALBytes] = ws.BytesLogged
		c[cWALForces] = ws.Forces
		c[cCommits] = rig.Env.Stats().Committed
	}
	if rig.Core != nil {
		cs := rig.Core.Stats()
		c[cCommits] = cs.Committed
		c[cCoreBytesFlushed] = cs.BytesFlushed
		c[cCoreFlushes] = cs.CommitFlush
		c[cVersionsRecorded] = cs.VersionsRecorded
	}
	if rig.LFS != nil {
		fs := rig.LFS.Stats()
		c[cLFSBlocksLogged] = fs.BlocksLogged
		c[cLFSCleanerBlocksWritten] = fs.Cleaner.BlocksWritten
		c[cLFSCleanerBlocksCopied] = fs.Cleaner.BlocksCopied
		c[cLFSCleanerBusyNS] = int64(fs.Cleaner.BusyTime)
		c[cLFSCleanerStallNS] = int64(fs.Cleaner.StallTime)
		c[cRetentionSkips] = fs.Cleaner.RetentionSkips
	}
	if f, ok := rig.FS.(*ffs.FS); ok {
		c[cFFSBlocksFlushed] = f.Stats().BlocksFlushed
	}
	return c
}

// sampleTrace adds what only the tracer's registry knows: buffer-pool hits
// and misses per pool and the summed group-commit wait.
func sampleTrace(tr *trace.Tracer) traceCounters {
	snap := tr.Metrics().Snapshot()
	fs := "lfs"
	if _, ok := snap.Counters["buffer.ffs.hit"]; ok {
		fs = "ffs"
	}
	return traceCounters{
		FSHits:       snap.Counters["buffer."+fs+".hit"],
		FSMisses:     snap.Counters["buffer."+fs+".miss"],
		UserHits:     snap.Counters["buffer.user.hit"],
		UserMisses:   snap.Counters["buffer.user.miss"],
		CommitWaitNS: int64(snap.Histograms["txn.commitWait"].Sum),
	}
}

// attribution sums the tracer's per-proc breakdown over the writer clients
// (the procs the drivers name client-N).
func attribution(tr *trace.Tracer) (a attrShares) {
	var elapsed, compute, dsk, queue, lck, commit, cleaner time.Duration
	for _, row := range tr.Attribution() {
		if !strings.HasPrefix(row.Proc, "client-") {
			continue
		}
		elapsed += row.Elapsed
		compute += row.Compute
		dsk += row.Disk
		queue += row.Queue
		lck += row.Lock
		commit += row.CommitWait
		cleaner += row.CleanerStall
	}
	if elapsed == 0 {
		return a
	}
	share := func(d time.Duration) float64 { return float64(d) / float64(elapsed) }
	return attrShares{share(compute), share(dsk), share(queue), share(lck), share(commit), share(cleaner)}
}

// --- one pass of one system ---

// runPass builds kind's rig for w, runs the workload through the timing
// decorator, samples every layer around the measured interval (run + drain),
// then scans and audits the result. A hard error is returned inside the
// record; it fails the transactions that did not commit and nothing else.
func runPass(w workload, kind string, seed uint64, stream int, traced bool, traceDir string) passRecord {
	p := passRecord{System: kind, Stream: stream, N: w.N, Traced: traced}
	seed = streamSeed(seed, stream)
	rec := newRecorder(w.N, traced)
	runtime.GC() // the previous rig's garbage is not this pass's cost

	opts := rigOptions(w, kind, seed, traced)
	cfg := opts.Config
	buildStart := wallNow()
	rig, err := tpcb.BuildRig(opts)
	p.SetupWall = wallNow().Sub(buildStart)
	if err != nil {
		p.Err = err.Error()
		p.Failed = int64(w.N)
		return p
	}
	rec.spans.add(span{Name: "build", Parent: -1, Client: -1, End: rig.Clock.Now(), Wall: p.SetupWall})
	ts := &timedSystem{System: rig.Sys, clock: rig.Clock, rec: rec}
	rig.Sys = ts
	for _, d := range rig.Devs {
		p.DeviceBlocks += d.NumBlocks()
	}

	before := sample(rig)
	var traceBefore traceCounters
	if traced {
		traceBefore = sampleTrace(rig.Tracer)
	}
	rec.spans.openRun(rig.Clock.Now())
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	runStart := wallNow()
	if w.Scanners > 0 {
		var res tpcb.MixedResult
		res, err = rig.RunMixed(cfg, w.N, w.MPL, w.Scanners, w.ScansEach, tpcb.ScanSnapshot)
		p.Dispatches, p.Retries = res.Dispatches, res.Retries+res.ScanRetries
		p.SimElapsed, p.ScanMode = res.WriterElapsed, string(res.ScanMode)
	} else {
		var res tpcb.Result
		res, err = rig.RunMPL(cfg, w.N, w.MPL)
		p.Dispatches, p.Retries, p.SimElapsed = res.Dispatches, res.Retries, res.Elapsed
	}
	p.RunWall = wallNow().Sub(runStart)
	runtime.ReadMemStats(&m1)
	p.Counts = sample(rig).sub(before)
	p.Mallocs = int64(m1.Mallocs - m0.Mallocs)
	p.AllocBytes = int64(m1.TotalAlloc - m0.TotalAlloc)
	p.GCPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	rec.spans.closeRun(rig.Clock.Now(), p.RunWall)
	if traced {
		p.Trace = sampleTrace(rig.Tracer).sub(traceBefore)
		p.Shares = attribution(rig.Tracer)
	}
	if err != nil {
		p.Err = err.Error()
	}

	// A hard error ends the pass here: the uncommitted transactions count as
	// failed, and the file system may be in no state to scan or audit.
	if err == nil {
		// The §5.3 SCAN test on the layout the run left behind; a mixed run
		// has already scanned, concurrently with the writers.
		if w.Scanners == 0 {
			scanStart := rig.Clock.Now()
			rows, serr := ts.ScanAccounts()
			rec.spans.add(span{Name: "scan", Parent: -1, Client: -1, Start: scanStart, End: rig.Clock.Now()})
			if serr != nil {
				p.Err = serr.Error()
			} else {
				rec.scans = append(rec.scans, rig.Clock.Now()-scanStart)
				rec.scanRows += rows
			}
		}
		auditStart := rig.Clock.Now()
		p.AuditBad, p.AuditFirst = audit(rig, cfg, rec)
		rec.spans.add(span{Name: "audit", Parent: -1, Client: -1, Start: auditStart, End: rig.Clock.Now()})
	}

	p.fill(rec, cfg.Accounts*int64(max(1, w.Scanners*w.ScansEach)))
	if traced && traceDir != "" {
		if werr := writeTraces(traceDir, w.Name+"."+kind, rig.Tracer, rec.spans); werr != nil && p.Err == "" {
			p.Err = werr.Error()
		}
	}
	return p
}

// audit compares every balance and the history count against what the
// decorator saw commit, counting wrong rows instead of stopping at the first
// (tpcb.VerifyState's check, kept going). It returns the count and a
// description of the first discrepancy.
func audit(rig *tpcb.Rig, cfg tpcb.Config, rec *recorder) (bad int64, first string) {
	note := func(n int64, format string, args ...any) {
		if n > 0 && first == "" {
			first = fmt.Sprintf(format, args...)
		}
		bad += n
	}
	fsys := rig.FS
	open := func(path string) (*pagestore.FileStore, io.Closer, bool) {
		f, err := fsys.Open(path)
		if err != nil {
			note(1, "%s: %v", path, err)
			return nil, nil, false
		}
		return pagestore.NewFileStore(f, fsys.BlockSize()), f, true
	}
	if st, f, ok := open(tpcb.HistoryPath); ok {
		if h, err := recno.Open(st); err != nil {
			note(1, "%s: %v", tpcb.HistoryPath, err)
		} else if d := h.Count() - rec.committed; d != 0 {
			note(max(d, -d), "history holds %d records, %d committed", h.Count(), rec.committed)
		}
		f.Close()
	}
	check := func(path string, rows int64, want map[int64]int64) {
		st, f, ok := open(path)
		if !ok {
			return
		}
		defer f.Close()
		tr, err := btree.Open(st)
		if err != nil {
			note(1, "%s: %v", path, err)
			return
		}
		c, err := tr.First()
		if err != nil {
			note(1, "%s: %v", path, err)
			return
		}
		var id int64
		for c.Next() {
			if got := tpcb.Balance(c.Value()); got != want[id] {
				note(1, "%s id %d balance %d, want %d", path, id, got, want[id])
			}
			id++
		}
		if err := c.Err(); err != nil {
			note(1, "%s: %v", path, err)
		}
		note(max(rows-id, id-rows), "%s holds %d rows, want %d", path, id, rows)
	}
	check(tpcb.AccountPath, cfg.Accounts, rec.account)
	check(tpcb.TellerPath, cfg.Tellers, rec.teller)
	check(tpcb.BranchPath, cfg.Branches, rec.branch)
	return bad, first
}

// writeTraces writes the program's own Chrome trace and the benchmark's
// spans for one traced pass.
func writeTraces(dir, stem string, tr *trace.Tracer, spans *spanLog) error {
	if err := writeFile(dir, stem+".sim.json", tr.WriteChrome); err != nil {
		return err
	}
	return writeFile(dir, stem+".bench.json", spans.writeChrome)
}

// --- single-layer probes ---

// probes times direct calls into one layer at a time, so a movement of an
// end-to-end wall metric can be attributed (or not) to a layer. Each returns
// the operations it performed; measureProbe turns that into ns and heap
// allocations per operation.
func probes(seed uint64) []probe {
	var tree *btree.Tree // built by the put probe, read by the get probe after it
	return []probe{
		{"lock.probe_acquire", probeLock},
		{"buffer.probe_hit", probeBufferHit},
		{"btree.probe_put", func() int { tree = probeBtreePut(seed); return btreeRecords }},
		{"btree.probe_get", func() int { return probeBtreeGet(seed, tree) }},
		{"wal.probe_append", probeWAL},
		{"disk.probe_io", func() int { return probeDisk(seed) }},
		{"lfs.probe_log_block", func() int { return probeLFS(seed) }},
		{"sim.probe_handoff", probeHandoff},
	}
}

// probeFail aborts a probe: the probes run fixed, valid inputs, so an error
// is a bug in the layer or the probe, not a measurement.
func probeFail(err error) {
	if err != nil {
		panic(fmt.Sprintf("benchmark probe: %v", err))
	}
}

// probeLock: one op = five uncontended write locks plus ReleaseAll, a TPC-B
// transaction's lock footprint.
func probeLock() int {
	const ops = 20000
	m := lock.NewManager()
	for i := 0; i < ops; i++ {
		txn := lock.TxnID(i + 1)
		for b := int64(0); b < 5; b++ {
			probeFail(m.Lock(txn, lock.Object{File: uint64(b), Block: int64(i) & 1023}, lock.Write))
		}
		m.ReleaseAll(txn)
	}
	return ops
}

// probeBufferHit: one op = Get + Release of a resident block.
func probeBufferHit() int {
	const resident, ops = 512, 1000000
	pool := buffer.New(1024, 4096, nil)
	for i := 0; i < resident; i++ {
		b, err := pool.Get(buffer.BlockID{File: 1, Block: int64(i)}, nil)
		probeFail(err)
		pool.Release(b)
	}
	for i := 0; i < ops; i++ {
		b, err := pool.Get(buffer.BlockID{File: 1, Block: int64(i*7) % resident}, nil)
		probeFail(err)
		pool.Release(b)
	}
	return ops
}

// The btree probes: 50k 100-byte records over an in-memory page store,
// inserted and then looked up in a seeded random order.
const btreeRecords = 50000

func probeBtreePut(seed uint64) *btree.Tree {
	tr, err := btree.Create(pagestore.NewMemStore(4096))
	probeFail(err)
	for _, id := range sim.NewRNG(seed).Perm(btreeRecords) {
		probeFail(tr.Put(tpcb.Key(int64(id)), tpcb.BalanceRecord(int64(id), 0)))
	}
	return tr
}

func probeBtreeGet(seed uint64, tr *btree.Tree) int {
	rng := sim.NewRNG(seed)
	for i := 0; i < btreeRecords; i++ {
		_, err := tr.Get(tpcb.Key(rng.Int63n(btreeRecords)))
		probeFail(err)
	}
	return btreeRecords
}

// probeWAL: one op = LogUpdate of a 100-byte record image + AppendCommit,
// with a Force every eighth op (the group-commit batch the workloads use).
func probeWAL() int {
	const ops = 20000
	clk := sim.NewClock()
	fsys, err := lfs.Format(disk.New(sim.RZ55Model(), clk), clk, lfs.Options{})
	probeFail(err)
	log, err := wal.Create(fsys, "/probe", wal.Options{})
	probeFail(err)
	before, after := make([]byte, 100), make([]byte, 100)
	for i := 0; i < ops; i++ {
		_, err := log.LogUpdate(uint64(i), 1, int64(i)&1023, 0, before, after)
		probeFail(err)
		_, err = log.AppendCommit(uint64(i))
		probeFail(err)
		if i%8 == 7 {
			probeFail(log.Force())
		}
	}
	return ops
}

// probeDisk: one op = a random 4 KB read or write (alternating) through the
// disk model.
func probeDisk(seed uint64) int {
	const ops = 200000
	clk := sim.NewClock()
	dev := disk.New(sim.SmallModel(), clk)
	rng := sim.NewRNG(seed)
	buf := make([]byte, dev.BlockSize())
	for i := 0; i < ops; i++ {
		block := rng.Int63n(dev.NumBlocks())
		if i%2 == 0 {
			probeFail(dev.Write(block, buf))
		} else {
			probeFail(dev.Read(block, buf))
		}
	}
	return ops
}

// probeLFS: one op = a 4 KB WriteAt to a random block of a 2048-block file,
// FlushFile every eighth op, on a 64-segment device — long enough that the
// log wraps several times and the cleaner's cost is part of the number.
func probeLFS(seed uint64) int {
	const ops, fileBlocks = 20000, 2048
	clk := sim.NewClock()
	fsys, err := lfs.Format(disk.New(sim.SmallModel(), clk), clk, lfs.Options{})
	probeFail(err)
	f, err := fsys.Create("/probe")
	probeFail(err)
	rng := sim.NewRNG(seed)
	buf := make([]byte, fsys.BlockSize())
	for i := 0; i < ops; i++ {
		_, err := f.WriteAt(buf, rng.Int63n(fileBlocks)*int64(len(buf)))
		probeFail(err)
		if i%8 == 7 {
			probeFail(fsys.FlushFile(f.ID()))
		}
	}
	return ops
}

// probeHandoff: 64 procs advancing in lockstep, every Yield handing the
// token to the next-earliest proc; one op = one dispatch.
func probeHandoff() int {
	const procs, yields = 64, 2000
	clk := sim.NewClock()
	sched := sim.NewScheduler(clk)
	for i := 0; i < procs; i++ {
		sched.Spawn("p", func() {
			for j := 0; j < yields; j++ {
				clk.Advance(time.Microsecond)
				clk.Yield()
			}
		})
	}
	sched.Run()
	return int(sched.Dispatches())
}
