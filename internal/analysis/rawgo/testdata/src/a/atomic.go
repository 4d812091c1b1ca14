package a

import "sync/atomic" // want `import of sync/atomic in simulation code`

// An atomic counter in simulation code orders nothing the coroutine switches
// do not already order.
var hits atomic.Int64

func hit() { hits.Add(1) }
