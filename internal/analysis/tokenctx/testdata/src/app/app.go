// Package app is a golden model of token-guarded state: a tracer-like arena
// recorded from proc context, collectors that read it from outside, and both
// justified and unjustified crossings.
package app

import "sim"

// tracer models the mutex-free event arena.
type tracer struct {
	// events relies on the single-token discipline for safety.
	//simlint:tokenguarded
	events []int
	// count is ordinary state: untouched by the analyzer.
	count int
}

var tr tracer

// pending is a token-guarded package var.
//
//simlint:tokenguarded
var pending int

// record appends to the arena. It is called from the proc body below and
// from the exported Mixed, so it lives in both worlds.
func record(v int) {
	tr.events = append(tr.events, v) // want `touches token-guarded field tracer\.events from both proc context and non-proc entry points`
	tr.count++
}

// Setup spawns the proc whose body records in proc context.
func Setup(s *sim.Scheduler, c *sim.Clock) {
	s.Spawn("worker", func() {
		record(1)
		pending++
	})
	c.OnStall(stallHook)
}

// stallHook runs in Scheduler.Run with the token held.
func stallHook() bool {
	pending = 0
	return false
}

// Mixed is an exported entry point that reaches record.
func Mixed(v int) { record(v) }

// Collect reads the arena from a plain exported entry point with no
// justification: flagged.
func Collect() int {
	return len(tr.events) // want `touches token-guarded field tracer\.events outside proc context`
}

// Drain reads the guarded package var without justification: flagged.
func Drain() int {
	return pending // want `touches token-guarded package var pending outside proc context`
}

// Snapshot is a justified collector: the outside-world walk stops here, so
// neither it nor readLen is flagged.
//
//simlint:tokensafe(read-only collector documented to run after the scheduler parks)
func Snapshot() int { return readLen() }

// readLen is covered by Snapshot's justification.
func readLen() int { return len(tr.events) }

// BadSafe carries a justification-free tokensafe: still honored as a
// suppression, but the annotation itself is flagged.
//
//simlint:tokensafe() want `simlint:tokensafe suppression requires a \(reason\)`
func BadSafe() int { return len(tr.events) }
