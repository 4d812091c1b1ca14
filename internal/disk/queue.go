package disk

import (
	"sort"

	"repro/internal/frame"
)

// Request is one queued block I/O.
type Request struct {
	Block int64
	Data  []byte // nil for reads; for writes, the queue's own copy
	// Lo and Hi bound, for writes, the block's sectors [Lo, Hi) that hold
	// every byte that differs from what its address holds.
	Lo, Hi int
	Read   bool
	Buf    []byte // destination for reads
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
	// as fewer sectors than their blocks hold, and the sectors they moved.
	shortWrites, shortSectors int64
}

// NewQueue returns an empty queue bound to dev.
func NewQueue(dev *Device) *Queue {
	return &Queue{dev: dev, frames: frame.NewList(dev.BlockSize())}
}

// Len reports the number of pending requests.
func (q *Queue) Len() int { return len(q.reqs) }

// ShortWrites reports how many writes FlushSorted has transferred as fewer
// sectors than their blocks hold, and how many sectors those writes moved.
func (q *Queue) ShortWrites() (writes, sectors int64) { return q.shortWrites, q.shortSectors }

// EnqueueWrite adds a write of data to block. The data is copied so the
// caller may reuse its buffer. The block's 512-byte sectors [lo, hi) hold
// every byte that differs from what its address holds: FlushSorted transfers
// them, and not the sectors before or after them at the ends of a run (see
// Device.WriteRange). A range that is empty or does not fit the block
// transfers the whole block.
//
//simlint:noalloc
func (q *Queue) EnqueueWrite(block int64, data []byte, lo, hi int) {
	var cp []byte
	if len(data) == q.frames.Size() {
		cp = q.frames.Take()
	} else {
		//simlint:alloc(a wrong-sized write keeps its length so the device refuses it at flush time, as it would a direct write)
		cp = make([]byte, len(data))
	}
	copy(cp, data)
	if spb := len(cp) / SectorSize; lo < 0 || hi > spb || lo >= hi {
		lo, hi = 0, spb
	}
	//simlint:alloc(the request slice grows to the largest flush once; FlushSorted keeps its capacity)
	q.reqs = append(q.reqs, Request{Block: block, Data: cp, Lo: lo, Hi: hi})
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
// of disk bandwidth. Reads move whole blocks. A run of writes moves its blocks
// from its first block's first changed sector through its last block's last
// one: a lone write moves the range EnqueueWrite was given.
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
		spb := len(r.Data) / SectorSize
		lo, hi := r.Lo, (len(run)-1)*spb+ordered[j-1].Hi
		if lo == 0 && hi == len(run)*spb {
			if err := q.dev.WriteRun(r.Block, run); err != nil {
				return err
			}
		} else {
			if err := q.dev.WriteRange(r.Block, run, lo, hi); err != nil {
				return err
			}
			q.shortWrites++
			q.shortSectors += int64(hi - lo)
		}
		i = j
	}
	return nil
}
