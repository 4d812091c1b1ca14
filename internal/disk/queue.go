package disk

import (
	"sort"

	"repro/internal/frame"
)

// Request is one queued block I/O.
type Request struct {
	Block int64
	Data  []byte // nil for reads; for writes, the queue's own copy
	Len   int    // for writes, the bytes a lone write transfers: whole sectors, at most the block
	Read  bool
	Buf   []byte // destination for reads
}

// Queue is a C-SCAN disk request queue: FlushSorted services queued requests
// in ascending block order starting from the arm's current position, wrapping
// once — the classic elevator discipline the conventional file system's
// syncer uses when it pushes 30-second-old dirty pages to disk alongside the
// workload's random reads.
type Queue struct {
	dev  *Device
	reqs []Request
	// frames hold the copies of enqueued writes. A copy goes back when
	// FlushSorted is done with the request: the device stores what it is
	// handed, so nothing aliases it by then.
	frames frame.List
	// shortWrites and shortSectors count the writes FlushSorted transferred
	// as fewer sectors than a block, and the sectors they moved.
	shortWrites, shortSectors int64
}

// NewQueue returns an empty queue bound to dev.
func NewQueue(dev *Device) *Queue {
	return &Queue{dev: dev, frames: frame.NewList(dev.BlockSize())}
}

// Len reports the number of pending requests.
func (q *Queue) Len() int { return len(q.reqs) }

// ShortWrites reports how many writes FlushSorted has transferred as fewer
// sectors than a block, and how many sectors those writes moved.
func (q *Queue) ShortWrites() (writes, sectors int64) { return q.shortWrites, q.shortSectors }

// EnqueueWrite adds a write of data to block. The data is copied so the
// caller may reuse its buffer. sectors is how many of the block's leading
// 512-byte sectors hold every byte that differs from what the block's address
// holds: FlushSorted transfers only those when it does not coalesce the write
// into a run (see Device.WriteRun). sectors at or past the block's own count
// transfers the whole block.
//
//simlint:noalloc
func (q *Queue) EnqueueWrite(block int64, data []byte, sectors int) {
	var cp []byte
	if len(data) == q.frames.Size() {
		cp = q.frames.Take()
	} else {
		//simlint:alloc(a wrong-sized write keeps its length so the device refuses it at flush time, as it would a direct write)
		cp = make([]byte, len(data))
	}
	copy(cp, data)
	n := len(cp)
	if len(cp) == q.frames.Size() && sectors > 0 && sectors*SectorSize < n {
		n = sectors * SectorSize
	}
	//simlint:alloc(the request slice grows to the largest flush once; FlushSorted keeps its capacity)
	q.reqs = append(q.reqs, Request{Block: block, Data: cp, Len: n})
}

// EnqueueRead adds a read of block into buf.
func (q *Queue) EnqueueRead(block int64, buf []byte) {
	q.reqs = append(q.reqs, Request{Block: block, Read: true, Buf: buf})
}

// FlushSorted services all queued requests in C-SCAN order and empties the
// queue; the first device error stops it and drops the requests not yet
// serviced, so a caller tracking what is durable must treat the whole flush as
// failed. Requests at or beyond the current arm position are serviced first in
// ascending order, then the arm sweeps back to the lowest remaining address.
// Adjacent requests are coalesced into contiguous runs so a well-sorted queue
// still benefits from sequential transfer — but, as the paper's simulation
// study [13] observes, even well-ordered scattered writes rarely exceed ~40%
// of disk bandwidth. Runs and reads move whole blocks; a lone write moves the
// sectors EnqueueWrite was given.
func (q *Queue) FlushSorted() error {
	if len(q.reqs) == 0 {
		return nil
	}
	arm := q.dev.ArmPosition()
	if arm < 0 {
		arm = 0
	}
	sort.SliceStable(q.reqs, func(i, j int) bool { return q.reqs[i].Block < q.reqs[j].Block })
	// Rotate so we start at the first request ≥ arm (C-SCAN).
	start := sort.Search(len(q.reqs), func(i int) bool { return q.reqs[i].Block >= arm })
	ordered := make([]Request, 0, len(q.reqs))
	ordered = append(ordered, q.reqs[start:]...)
	ordered = append(ordered, q.reqs[:start]...)
	q.reqs = q.reqs[:0]
	defer func() {
		for _, r := range ordered {
			if len(r.Data) == q.frames.Size() {
				q.frames.Give(r.Data)
			}
		}
	}()

	i := 0
	for i < len(ordered) {
		r := ordered[i]
		if r.Read {
			// Coalesce a contiguous run of reads.
			run := [][]byte{r.Buf}
			j := i + 1
			for j < len(ordered) && ordered[j].Read && ordered[j].Block == r.Block+int64(len(run)) {
				run = append(run, ordered[j].Buf)
				j++
			}
			if err := q.dev.ReadRun(r.Block, run); err != nil {
				return err
			}
			i = j
			continue
		}
		// Coalesce a contiguous run of writes.
		run := [][]byte{r.Data}
		j := i + 1
		for j < len(ordered) && !ordered[j].Read && ordered[j].Block == r.Block+int64(len(run)) {
			run = append(run, ordered[j].Data)
			j++
		}
		short := len(run) == 1 && r.Len < len(r.Data)
		if short {
			run[0] = r.Data[:r.Len]
		}
		if err := q.dev.WriteRun(r.Block, run); err != nil {
			return err
		}
		if short {
			q.shortWrites++
			q.shortSectors += int64(r.Len / SectorSize)
		}
		i = j
	}
	return nil
}
