package tpcb

import "repro/internal/trace"

// CollectSnapshot assembles the end-of-run report for a rig: the benchmark
// result, every subsystem's counters, and — when the rig carries a tracer —
// the per-proc time attribution and the metrics registry. The trace package
// deliberately imports none of the subsystems, so this is where its neutral
// section structs get filled in.
//
// tr may be nil (or distinct from the rig's tracer, e.g. a harness that owns
// the tracer itself); the stats sections are collected either way.
func CollectSnapshot(rig *Rig, res Result, tr *trace.Tracer) *trace.Snapshot {
	snap := &trace.Snapshot{
		System:  res.System,
		Txns:    res.Txns,
		MPL:     res.MPL,
		Retries: res.Retries,
		Elapsed: res.Elapsed,
		TPS:     res.TPS,
	}
	if rig == nil {
		return snap
	}
	if len(rig.Devs) > 0 {
		// Aggregate = field-wise sum over member devices; each request is
		// charged to exactly one device, so nothing is double-counted. The
		// per-device rows appear only on multi-device rigs, keeping
		// single-disk snapshots byte-identical to historical captures.
		sec := &trace.DiskSection{}
		for i, d := range rig.Devs {
			ds := d.Stats()
			sec.Reads += ds.Reads
			sec.BlocksRead += ds.BlocksRead
			sec.Writes += ds.Writes
			sec.BlocksWrit += ds.BlocksWrit
			sec.Seeks += ds.Seeks
			sec.BusyTime += ds.BusyTime
			sec.QueueTime += ds.QueueTime
			if len(rig.Devs) > 1 {
				sec.Devices = append(sec.Devices, trace.DiskDeviceRow{
					Dev:        i,
					Reads:      ds.Reads,
					BlocksRead: ds.BlocksRead,
					Writes:     ds.Writes,
					BlocksWrit: ds.BlocksWrit,
					Seeks:      ds.Seeks,
					BusyTime:   ds.BusyTime,
					QueueTime:  ds.QueueTime,
				})
			}
		}
		snap.Disk = sec
	}
	if rig.LFS != nil {
		fst := rig.LFS.Stats()
		snap.LFS = &trace.LFSSection{
			PartialSegments: fst.PartialSegments,
			BlocksLogged:    fst.BlocksLogged,
			Checkpoints:     fst.Checkpoints,
			WriteAmp:        fst.WriteAmplification(),
			Cleaner: trace.CleanerSection{
				Runs:            fst.Cleaner.Runs,
				SegmentsCleaned: fst.Cleaner.SegmentsCleaned,
				BlocksCopied:    fst.Cleaner.BlocksCopied,
				BlocksDead:      fst.Cleaner.BlocksDead,
				BusyTime:        fst.Cleaner.BusyTime,
				OverlapTime:     fst.Cleaner.OverlapTime,
				StallTime:       fst.Cleaner.StallTime,
				HotBlocks:       fst.Cleaner.HotBlocks,
				ColdBlocks:      fst.Cleaner.ColdBlocks,
				RetentionSkips:  fst.Cleaner.RetentionSkips,
				RetainedBlocks:  fst.Cleaner.RetainedBlocks,
				HorizonLag:      fst.Cleaner.HorizonLag,
			},
		}
	}
	if len(rig.Shards) > 0 {
		// On a sharded rig each environment has its own log; the section
		// sums them (one record lands in exactly one shard's log).
		sec := &trace.WALSection{}
		for _, env := range rig.Shards {
			ws := env.LogStats()
			sec.Records += ws.Records
			sec.BytesLogged += ws.BytesLogged
			sec.Forces += ws.Forces
			sec.GroupCommits += ws.GroupCommits
			sec.Segments += ws.Segments
			sec.Rotations += ws.Rotations
			sec.SegmentsSealed += ws.SegmentsSealed
			sec.SegmentsDeleted += ws.SegmentsDeleted
			sec.SegmentsArchived += ws.SegmentsArchived
			sec.Checkpoints += ws.Checkpoints
			sec.IndexEntries += ws.IndexEntries
			sec.IndexWrites += ws.IndexWrites
		}
		snap.WAL = sec
	}
	if rig.Core != nil {
		cs := rig.Core.Stats()
		snap.Embedded = &trace.EmbeddedSection{
			Committed:    cs.Committed,
			Aborted:      cs.Aborted,
			CommitFlush:  cs.CommitFlush,
			PagesFlushed: cs.PagesFlushed,
			BytesFlushed: cs.BytesFlushed,

			Snapshots:        cs.Snapshots,
			VersionsRecorded: cs.VersionsRecorded,
		}
	}
	if rig.Shards != nil || rig.Core != nil {
		ls := rig.LockStats()
		snap.Locks = &trace.LockSection{
			Acquired:       ls.Acquired,
			Waited:         ls.Waited,
			BlockedTime:    ls.BlockedTime,
			Deadlocks:      ls.Deadlocks,
			DeadlockAborts: ls.DeadlockAborts,
			Upgrades:       ls.Upgrades,

			UpgradeDeadlocks: ls.UpgradeDeadlocks,
		}
	}
	if tr.Enabled() {
		snap.Attribution = tr.Attribution()
		ms := tr.Metrics().Snapshot()
		snap.Metrics = &ms
	}
	return snap
}

// CollectMixedSnapshot is CollectSnapshot plus the scan section of a mixed
// OLTP + long-running-scan run.
func CollectMixedSnapshot(rig *Rig, res MixedResult, tr *trace.Tracer) *trace.Snapshot {
	snap := CollectSnapshot(rig, res.Result, tr)
	if res.Scanners > 0 {
		snap.Scan = &trace.ScanSection{
			Mode:          string(res.ScanMode),
			Scanners:      res.Scanners,
			Scans:         res.Scans,
			Rows:          res.ScanRows,
			Retries:       res.ScanRetries,
			WriterElapsed: res.WriterElapsed,
			WriterTPS:     res.WriterTPS,
		}
	}
	return snap
}
