package disk

import "repro/internal/sim"

// CrashSet is the crash model: a whole-machine power failure across the
// devices joined to it. Write operations on every member are counted in one
// global sequence (the order the simulation issues them, which is
// deterministic), and when the n-th write fires, power fails for the whole
// machine — every member crashes at once. The crashing operation persists
// none of its blocks on its own device (or, in torn mode, a deterministic
// prefix); every other member keeps exactly what was durable before that
// operation. This models the failure unit the 2PC recovery protocol must
// survive: all shards lose their volatile state together, each disk keeping
// its own durable prefix. A set of one device is the single disk's crash.
type CrashSet struct {
	members []*Device
	//simlint:tokenguarded
	writeOps int64
	//simlint:tokenguarded
	crashAt int64 // 1-based global op index to crash on; 0 = disabled
	//simlint:tokenguarded
	crashTorn bool
	//simlint:tokenguarded
	crashSeed uint64
	//simlint:tokenguarded
	crashed bool
}

// NewCrashSet returns a crash set with the given devices joined.
//
//simlint:tokensafe(setup-time registration: runs before Run hands the token to any proc)
func NewCrashSet(devs ...*Device) *CrashSet {
	s := &CrashSet{}
	s.Join(devs...)
	return s
}

// Join adds devices to the set; their write operations count from here on.
// A rig joins each device when it creates it, before formatting, so crash
// points count from power-on.
//
//simlint:tokensafe(setup-time registration: runs before Run hands the token to any proc)
func (s *CrashSet) Join(devs ...*Device) {
	for _, d := range devs {
		d.cset = s
	}
	s.members = append(s.members, devs...)
}

// CrashAfter schedules a whole-machine crash on the n-th write operation
// counted across every member (1-based; Write and WriteRun each count as one
// operation — see WriteOps). The crashing operation persists none of its
// blocks, unless torn is set, in which case a deterministic prefix of the
// run — chosen by a RNG seeded with seed, possibly empty and possibly the
// whole run (the "acknowledgement lost" case) — reaches the media of the
// device servicing it before power fails. The crashing write and every later
// access to any member return ErrCrashed until ClearCrash. No simulated time
// is charged for accesses after the crash.
//
//simlint:tokensafe(setup-time registration: runs before Run hands the token to any proc)
func (s *CrashSet) CrashAfter(n int64, torn bool, seed uint64) {
	s.crashAt = n
	s.crashTorn = torn
	s.crashSeed = seed
}

// ClearCrash lifts a fired (or pending) crash on the whole set so every
// member can be remounted, modelling the post-crash reboot. Stored contents
// are exactly what was durable at the crash point.
//
//simlint:tokensafe(setup-time registration: runs before Run hands the token to any proc)
func (s *CrashSet) ClearCrash() {
	s.crashed = false
	s.crashAt = 0
	for _, d := range s.members {
		d.crashed = false
	}
}

// Crashed reports whether the scheduled crash has fired.
//
//simlint:tokensafe(read-only collector documented to run after Scheduler.Run returns)
func (s *CrashSet) Crashed() bool { return s.crashed }

// WriteOps returns the number of write operations issued across all members
// since they joined — the coordinate system CrashAfter addresses.
//
//simlint:tokensafe(read-only collector documented to run after Scheduler.Run returns)
func (s *CrashSet) WriteOps() int64 { return s.writeOps }

// noteWrite is the per-operation hook Device.noteWrite delegates to: advance
// the global counter, fire the crash when due, and take down every member.
// The torn prefix lands on d, the device servicing the crashing operation.
func (s *CrashSet) noteWrite(d *Device, start int64, bufs [][]byte) bool {
	s.writeOps++
	if s.crashAt == 0 || s.writeOps < s.crashAt {
		return true
	}
	s.crashed = true
	for _, m := range s.members {
		m.crashed = true
	}
	if s.crashTorn {
		// The media wrote blocks strictly in order until power failed, so
		// what survives is a prefix — anywhere from nothing to the full run.
		k := sim.NewRNG(s.crashSeed).Intn(len(bufs) + 1)
		for i := 0; i < k; i++ {
			d.store(start+int64(i), bufs[i])
		}
	}
	return false
}
