// Package disk implements the simulated block device both file systems run
// on. A Device models one spindle: it stores block contents in memory and
// charges simulated time for every access using a sim.DiskModel, tracking the
// arm position so that sequential transfers (the log-structured file system's
// segment writes) are billed at media bandwidth while scattered accesses pay
// seek and rotational delays. The device also carries the crash model: it
// counts its write operations and can fail power on a chosen one.
//
// The package also provides a C-SCAN request queue, used by the
// read-optimized file system's syncer to sort delayed writes by block address
// before issuing them — the behaviour §5.1 of the paper describes for the
// conventional system ("sorted in the disk queue with all other I/O").
package disk

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// SectorSize is the device's unit of transfer within a block: the RZ55's
// 512-byte sector. A one-block write may transfer fewer sectors than the block
// holds (see WriteRun); everything else moves whole blocks.
const SectorSize = 512

// Common errors returned by the device.
var (
	ErrOutOfRange = errors.New("disk: block address out of range")
	ErrBadSize    = errors.New("disk: buffer size does not match block size")
	// ErrCrashed is returned by every access once the device's scheduled
	// crash has fired (see Device.CrashAfter), until Device.ClearCrash
	// re-enables it.
	ErrCrashed = errors.New("disk: device crashed")
)

// Stats accumulates device activity counters.
type Stats struct {
	Reads      int64         `json:"reads"`          // read operations
	Writes     int64         `json:"writes"`         // write operations
	BlocksRead int64         `json:"blocks_read"`    // blocks transferred in
	BlocksWrit int64         `json:"blocks_written"` // blocks transferred out
	Seeks      int64         `json:"seeks"`          // accesses that paid positioning time
	BusyTime   time.Duration `json:"busy"`           // total simulated service time
	QueueTime  time.Duration `json:"queued"`         // time spent queued behind the request holding the arm (MPL > 1)
}

// FaultFn can be installed with SetFault to inject I/O errors: it is called
// before every access with the operation ("read" or "write") and, for
// multi-block runs, once per block in the run; a non-nil return aborts the
// whole access with that error before any side effects. Used by tests to
// exercise error paths.
type FaultFn func(op string, block int64) error

// Device is a simulated block device modelling a single spindle. Methods are
// NOT safe for arbitrary concurrent use: like every simulation-facing API in
// this repository they must run in proc context — under the scheduler's
// single execution token (inside a Spawn'd proc or a stall hook), or on the
// main goroutine when no scheduler is running, which is the degenerate
// single-token case. The cooperative scheduler never preempts between a
// method's first field access and its last, so per-request state needs no
// locking; simulated service time is still serialized per spindle through
// busyUntil, which is what models the single arm.
type Device struct {
	model sim.DiskModel
	clock *sim.Clock
	//simlint:tokenguarded
	blocks [][]byte // nil until the block is first written
	//simlint:tokenguarded
	slab []byte // the unused rest of the slab that backs newly written blocks
	//simlint:tokenguarded
	one [1][]byte // Read's and Write's one-block run, so they allocate nothing
	//simlint:tokenguarded
	arm int64 // block address one past the last access, -1 if unknown
	//simlint:tokenguarded
	lag time.Duration // rotation the next access at arm owes: the sectors a sub-block write left untransferred
	//simlint:tokenguarded
	fault FaultFn
	//simlint:tokenguarded
	stats Stats
	//simlint:tokenguarded
	tracer *trace.Tracer // nil = tracing off (every call is a cheap no-op)
	//simlint:tokenguarded
	rd opTrace // per-op cached span names and metric handles
	//simlint:tokenguarded
	wr opTrace

	//simlint:tokenguarded
	bg *BgTimes // the background account accesses are charged to; nil = foreground
	//simlint:tokenguarded
	idleCredit time.Duration // foreground idle time not yet spent on background work
	//simlint:tokenguarded
	lastEnd time.Duration // clock time when the last request finished
	//simlint:tokenguarded
	busyUntil time.Duration // virtual time the spindle finishes the request holding the arm

	// Crash model (see CrashAfter). Once crashed is set, every access fails
	// with ErrCrashed until ClearCrash.
	//simlint:tokenguarded
	writeOps int64
	//simlint:tokenguarded
	crashAt int64 // 1-based write op to crash on; 0 = disabled
	//simlint:tokenguarded
	crashTorn bool
	//simlint:tokenguarded
	crashSeed uint64
	//simlint:tokenguarded
	crashed bool
}

// SetFault installs (or clears, with nil) a fault-injection hook.
//
//simlint:tokensafe(setup-time registration: runs before Run hands the token to any proc)
func (d *Device) SetFault(f FaultFn) {
	d.fault = f
}

// checkFault consults the injection hook for every block of a run, so
// per-block fault rules cannot be bypassed by multi-block transfers. Any
// non-nil return aborts the whole run before any side effects.
func (d *Device) checkFault(op string, start int64, n int) error {
	if d.fault == nil {
		return nil
	}
	for i := 0; i < n; i++ {
		if err := d.fault(op, start+int64(i)); err != nil {
			return err
		}
	}
	return nil
}

// CrashAfter schedules a power failure on the n-th write operation since the
// device was created (1-based; Write and WriteRun each count as one operation
// — see WriteOps). The crashing operation persists none of its blocks, unless
// torn is set, in which case a deterministic prefix of the run — chosen by a
// RNG seeded with seed, possibly empty and possibly the whole run (the
// "acknowledgement lost" case) — reaches the media before power fails. A
// sub-block write tears at a sector boundary: a prefix of its sectors. The
// crashing write and every later access return ErrCrashed until ClearCrash.
// No simulated time is charged for accesses after the crash.
//
//simlint:tokensafe(setup-time registration: runs before Run hands the token to any proc)
func (d *Device) CrashAfter(n int64, torn bool, seed uint64) {
	d.crashAt = n
	d.crashTorn = torn
	d.crashSeed = seed
}

// ClearCrash lifts a fired (or pending) crash so the device can be
// remounted, modelling the post-crash reboot. Stored contents are exactly
// what was durable at the crash point.
//
//simlint:tokensafe(setup-time registration: runs before Run hands the token to any proc)
func (d *Device) ClearCrash() {
	d.crashed = false
	d.crashAt = 0
}

// Crashed reports whether the scheduled crash has fired.
//
//simlint:tokensafe(read-only collector documented to run after Scheduler.Run returns)
func (d *Device) Crashed() bool { return d.crashed }

// WriteOps returns the number of write operations issued since the device
// was created — the coordinate system CrashAfter addresses. Unlike Stats, it
// is never reset.
//
//simlint:tokensafe(read-only collector documented to run after Scheduler.Run returns)
func (d *Device) WriteOps() int64 { return d.writeOps }

// noteWrite counts a write operation and reports whether it may proceed
// normally; on the scheduled operation it fires the crash instead, storing
// the torn prefix of the run when the crash tears.
func (d *Device) noteWrite(start int64, bufs [][]byte) bool {
	d.writeOps++
	if d.crashAt == 0 || d.writeOps < d.crashAt {
		return true
	}
	d.crashed = true
	if !d.crashTorn {
		return false
	}
	// The media wrote blocks, and a block's sectors, strictly in order until
	// power failed, so what survives is a prefix — anywhere from nothing to
	// the full run.
	rng := sim.NewRNG(d.crashSeed)
	if b := bufs[0]; len(b) < d.model.BlockSize {
		d.store(start, b[:rng.Intn(len(b)/SectorSize+1)*SectorSize])
		return false
	}
	k := rng.Intn(len(bufs) + 1)
	for i := 0; i < k; i++ {
		d.store(start+int64(i), bufs[i])
	}
	return false
}

// MaxBlocks bounds the devices the commands build: a device keeps a slot per
// block, and 2^24 blocks of 4 KB are 64 GB, some 200 times the paper's disk.
const MaxBlocks = 1 << 24

// New creates a device with the given model, advancing the given clock on
// every access.
func New(model sim.DiskModel, clock *sim.Clock) *Device {
	return &Device{
		model:  model,
		clock:  clock,
		blocks: make([][]byte, model.NumBlocks),
		arm:    -1,
	}
}

// opTrace caches one access direction's span name and latency histogram so
// the per-access hot path neither concatenates strings nor hashes metric
// names.
type opTrace struct {
	span string
	lat  *trace.Hist
}

// SetTracer attaches a tracer; each access then emits a disk.read/disk.write
// complete event with its seek/rotation/transfer/queue breakdown and charges
// per-proc time attribution. A nil tracer (the default) costs nothing.
//
//simlint:tokensafe(setup-time registration: runs before Run hands the token to any proc)
func (d *Device) SetTracer(tr *trace.Tracer) {
	d.tracer = tr
	d.rd = opTrace{span: "disk.read", lat: tr.Hist("disk.read")}
	d.wr = opTrace{span: "disk.write", lat: tr.Hist("disk.write")}
}

// Model returns the device's service-time model.
func (d *Device) Model() sim.DiskModel { return d.model }

// BlockSize returns the device block size in bytes.
func (d *Device) BlockSize() int { return d.model.BlockSize }

// NumBlocks returns the number of addressable blocks.
func (d *Device) NumBlocks() int64 { return d.model.NumBlocks }

// Stats returns a snapshot of the accumulated statistics.
//
//simlint:tokensafe(read-only collector documented to run after Scheduler.Run returns)
func (d *Device) Stats() Stats {
	return d.stats
}

// ResetStats zeroes the statistics counters.
//
//simlint:tokensafe(setup-time registration: runs before Run hands the token to any proc)
func (d *Device) ResetStats() {
	d.stats = Stats{}
}

func (d *Device) checkRange(block int64, n int) error {
	if block < 0 || block+int64(n) > d.model.NumBlocks {
		return fmt.Errorf("%w: block %d count %d (device has %d)", ErrOutOfRange, block, n, d.model.NumBlocks)
	}
	return nil
}

// charge bills an access of n contiguous blocks at address block, transferring
// nbytes of them, and moves the arm. Foreground accesses advance the clock by
// their full service time. Background accesses (see Background) drain the
// accumulated idle budget first and only their residue stalls the clock.
//
// The arm moves past the whole last block whatever its transfer: an access
// that continues there waits, as rotation, for the sectors a sub-block write
// left untransferred to pass under the head. A sub-block write followed by a
// sequential access thus costs what two whole-block accesses do; the sectors
// save their transfer only when the next access seeks.
//
// The device models a single spindle: whatever arm time a caller waits for —
// all of a foreground access, the unabsorbed residue of a background one —
// first waits out the request still holding the arm (possible only at MPL > 1,
// where clients carry independent virtual clocks), is charged that queueing
// delay, and then holds the arm itself. At MPL = 1 the single client's time is
// never behind busyUntil, so the queue wait is always zero and timings match
// the direct-advance design exactly. A background access the idle budget
// absorbs entirely ran in an idle window already past: it neither waits nor
// holds the arm.
func (d *Device) charge(ot *opTrace, block int64, n, nbytes int) {
	start := d.clock.Now()
	var qwait time.Duration
	if d.bg == nil {
		qwait = d.waitForArm()
	}
	seek, rot, xfer := d.model.AccessTimeParts(d.arm, block, n)
	if block == d.arm {
		rot += d.lag
	}
	d.lag = 0
	if nbytes < n*d.model.BlockSize {
		part := d.model.TransferTime(nbytes)
		d.lag, xfer = xfer-part, part
	}
	t := seek + rot + xfer
	if d.arm != block {
		d.stats.Seeks++
	}
	d.arm = block + int64(n)
	d.stats.BusyTime += t
	if now := d.clock.Now(); now > d.lastEnd {
		d.idleCredit += now - d.lastEnd
	}
	held := t // the arm time the caller waits for
	if d.bg != nil {
		overlap := min(t, d.idleCredit)
		d.idleCredit -= overlap
		held = t - overlap
		d.bg.Busy += t
		d.bg.Overlap += overlap
		d.bg.Stall += held
		if held > 0 {
			qwait = d.waitForArm()
		}
	}
	d.clock.Advance(held)
	d.lastEnd = d.clock.Now()
	if held > 0 {
		// Only held time and its queueing delayed anyone. It is disk time
		// unless the caller redirected it (the cleaner pushes AttrCleaner).
		d.tracer.AttributeIO(held, qwait)
		d.busyUntil = d.lastEnd
	}
	if d.tracer.Enabled() {
		lane := "fg"
		if d.bg != nil {
			lane = "bg"
		}
		d.tracer.Complete("disk", ot.span, start,
			trace.AI("block", block), trace.AI("blocks", int64(n)),
			trace.AI("seek_ns", seek.Nanoseconds()), trace.AI("rot_ns", rot.Nanoseconds()),
			trace.AI("xfer_ns", xfer.Nanoseconds()), trace.AI("queue_ns", qwait.Nanoseconds()),
			trace.AS("lane", lane))
		ot.lat.Observe(d.clock.Now() - start)
	}
}

// waitForArm advances the caller to the end of the request holding the arm,
// counts the wait as queue time and returns it.
func (d *Device) waitForArm() time.Duration {
	now := d.clock.Now()
	if d.busyUntil <= now {
		return 0
	}
	q := d.busyUntil - now
	d.clock.Advance(q)
	d.stats.QueueTime += q
	return q
}

// BgTimes is one caller's share of a device's background lane: Busy is its
// background service time, Overlap the part idle windows absorbed, Stall the
// residue that delayed the workload (Busy = Overlap + Stall).
type BgTimes struct {
	Busy    time.Duration `json:"busy"`
	Overlap time.Duration `json:"overlap"`
	Stall   time.Duration `json:"stall"`
}

// Background runs fn on the device's background lane, for device work no
// caller waits on — write-behind and the idle cleaner — and charges its
// accesses' times to acc. The device keeps a budget of idle time accumulated
// since its last request completed; background service time drains that
// budget first, and only the residue advances the clock and occupies the
// arm, stalling the caller and queueing the foreground requests behind it.
// This is §5.4's "in idle periods", applied to every deferred write. Inside
// another Background call fn runs as part of it: the outer account is
// charged.
//
//simlint:tokensafe(device API is documented proc-context-only; at MPL=1 the main goroutine is the sole, degenerate token holder)
func (d *Device) Background(acc *BgTimes, fn func() error) error {
	if d.bg != nil {
		return fn()
	}
	d.bg = acc
	defer func() { d.bg = nil }()
	return fn()
}

// Foreground runs fn on the foreground lane, also inside Background: its
// accesses are charged in full and queue for the arm.
//
//simlint:tokensafe(device API is documented proc-context-only; at MPL=1 the main goroutine is the sole, degenerate token holder)
func (d *Device) Foreground(fn func() error) error {
	prev := d.bg
	d.bg = nil
	defer func() { d.bg = prev }()
	return fn()
}

// ResetIdleCredit forgets accumulated idle time. Benchmark rigs call this
// after the load phase so the measured run's background cleaner cannot hide
// behind setup-time idleness.
//
//simlint:tokensafe(setup-time registration: runs before Run hands the token to any proc)
func (d *Device) ResetIdleCredit() {
	d.idleCredit = 0
	d.lastEnd = d.clock.Now()
}

// Read reads one block into buf: a one-block ReadRun. buf must be exactly
// one block long.
//
//simlint:tokensafe(device API is documented proc-context-only; at MPL=1 the main goroutine is the sole, degenerate token holder)
func (d *Device) Read(block int64, buf []byte) error {
	d.one[0] = buf
	err := d.ReadRun(block, d.one[:])
	d.one[0] = nil
	return err
}

// Write writes one block from buf: a one-block WriteRun. buf is one block
// long, or a sub-block write of whole sectors.
//
//simlint:tokensafe(device API is documented proc-context-only; at MPL=1 the main goroutine is the sole, degenerate token holder)
func (d *Device) Write(block int64, buf []byte) error {
	d.one[0] = buf
	err := d.WriteRun(block, d.one[:])
	d.one[0] = nil
	return err
}

// slabBlocks is how many blocks one allocation of device storage backs. A
// block's bytes are allocated at its first write, carved from the current slab
// in the order blocks are first written, so no slab is left part-empty by the
// layout; one allocation per block made most of a rig's set-up allocator work.
const slabBlocks = 64

// store copies buf into block, or into its leading sectors when buf is shorter:
// the rest of the block keeps what it held. Zeros written to a block never
// written before store nothing: the block reads as zeros already, and a file
// system that zero-fills a range it reserves (ffs's growing Truncate) costs no
// memory.
func (d *Device) store(block int64, buf []byte) {
	dst := d.blocks[block]
	if dst == nil {
		if allZero(buf) {
			return
		}
		bs := d.model.BlockSize
		if len(d.slab) == 0 {
			d.slab = make([]byte, slabBlocks*bs)
		}
		dst, d.slab = d.slab[:bs:bs], d.slab[bs:]
		d.blocks[block] = dst
	}
	copy(dst, buf)
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// WriteRun writes len(bufs) contiguous blocks starting at start in a single
// sequential transfer: one positioning delay, then media-rate transfer. This
// is the primitive behind LFS segment writes. A run of one block may be a
// sub-block write: its buffer a whole number of sectors shorter than the
// block, which is charged and stores only those sectors (see charge for the
// rotation the next sequential access owes). It still counts one block in
// Stats.BlocksWrit.
//
//simlint:tokensafe(device API is documented proc-context-only; at MPL=1 the main goroutine is the sole, degenerate token holder)
func (d *Device) WriteRun(start int64, bufs [][]byte) error {
	if len(bufs) == 0 {
		return nil
	}
	nbytes := len(bufs) * d.model.BlockSize
	if n := len(bufs[0]); len(bufs) == 1 && n > 0 && n < d.model.BlockSize && n%SectorSize == 0 {
		nbytes = n // a sub-block write
	} else {
		for _, b := range bufs {
			if len(b) != d.model.BlockSize {
				return ErrBadSize
			}
		}
	}
	if err := d.checkRange(start, len(bufs)); err != nil {
		return err
	}
	if d.crashed {
		return ErrCrashed
	}
	if err := d.checkFault("write", start, len(bufs)); err != nil {
		return err
	}
	if !d.noteWrite(start, bufs) {
		return ErrCrashed
	}
	d.charge(&d.wr, start, len(bufs), nbytes)
	d.stats.Writes++
	d.stats.BlocksWrit += int64(len(bufs))
	for i, b := range bufs {
		d.store(start+int64(i), b)
	}
	return nil
}

// ReadRun reads len(bufs) contiguous blocks starting at start in a single
// sequential transfer.
//
//simlint:tokensafe(device API is documented proc-context-only; at MPL=1 the main goroutine is the sole, degenerate token holder)
func (d *Device) ReadRun(start int64, bufs [][]byte) error {
	if len(bufs) == 0 {
		return nil
	}
	for _, b := range bufs {
		if len(b) != d.model.BlockSize {
			return ErrBadSize
		}
	}
	if err := d.checkRange(start, len(bufs)); err != nil {
		return err
	}
	if d.crashed {
		return ErrCrashed
	}
	if err := d.checkFault("read", start, len(bufs)); err != nil {
		return err
	}
	d.charge(&d.rd, start, len(bufs), len(bufs)*d.model.BlockSize)
	d.stats.Reads++
	d.stats.BlocksRead += int64(len(bufs))
	for i, b := range bufs {
		if src := d.blocks[start+int64(i)]; src != nil {
			copy(b, src)
		} else {
			for j := range b {
				b[j] = 0
			}
		}
	}
	return nil
}

// Peek returns the stored contents of a block without charging simulated
// time. It is intended for tests and the lfsdump inspector, not for file
// system code.
//
//simlint:tokensafe(read-only collector documented to run after Scheduler.Run returns)
func (d *Device) Peek(block int64) ([]byte, error) {
	if err := d.checkRange(block, 1); err != nil {
		return nil, err
	}
	out := make([]byte, d.model.BlockSize)
	if src := d.blocks[block]; src != nil {
		copy(out, src)
	}
	return out, nil
}

// StoredBlocks reports how many blocks hold data: blocks written with
// something other than zeros at least once.
//
//simlint:tokensafe(read-only collector documented to run after Scheduler.Run returns)
func (d *Device) StoredBlocks() int64 {
	var n int64
	for _, b := range d.blocks {
		if b != nil {
			n++
		}
	}
	return n
}

// ArmPosition reports the current arm position (block address) or -1 when
// unknown: the block a sequential run would read next. The file systems'
// fetch paths read such a block from the device rather than from their
// stage, and tests assert sequential behaviour with it.
//
//simlint:tokensafe(device API is documented proc-context-only; at MPL=1 the main goroutine is the sole, degenerate token holder)
func (d *Device) ArmPosition() int64 {
	return d.arm
}
