package trace

import "time"

// AttrRow is one proc's "where did simulated time go" breakdown over its
// measured interval (ProcStart..ProcEnd). Compute is whatever the
// instrumentation did not claim. Durations marshal as integer nanoseconds.
type AttrRow struct {
	Proc         string        `json:"proc"`
	Tid          int           `json:"tid"`
	Elapsed      time.Duration `json:"elapsed"`
	Compute      time.Duration `json:"compute"`
	Disk         time.Duration `json:"disk"`
	Queue        time.Duration `json:"queue"`
	Lock         time.Duration `json:"lock"`
	CommitWait   time.Duration `json:"commit_wait"`
	CleanerStall time.Duration `json:"cleaner_stall"`
}

// Attribution returns one row per proc slot bracketed by ProcStart, in tid
// order, each covering the measured interval only (attribution accumulated
// before ProcStart is subtracted via the baseline snapshot). It runs after
// Scheduler.Run returns.
func (t *Tracer) Attribution() []AttrRow {
	if t == nil {
		return nil
	}
	var rows []AttrRow
	for tid, p := range t.procs {
		if p == nil || !p.started {
			continue
		}
		end := p.end
		if !p.ended {
			end = p.start // unclosed interval: report zero elapsed, not garbage
		}
		var cat [numAttrCats]time.Duration
		var claimed time.Duration
		for c := range cat {
			cat[c] = p.cat[c] - p.base[c]
			claimed += cat[c]
		}
		row := AttrRow{
			Proc:         t.procName(tid),
			Tid:          tid,
			Elapsed:      end - p.start,
			Compute:      max(0, end-p.start-claimed),
			Disk:         cat[AttrDisk],
			Queue:        cat[AttrQueue],
			Lock:         cat[AttrLock],
			CommitWait:   cat[AttrCommitWait],
			CleanerStall: cat[AttrCleaner],
		}
		rows = append(rows, row)
	}
	return rows
}
