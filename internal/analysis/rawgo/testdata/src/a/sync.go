package a

import "sync" // want `import of sync in simulation code`

// A mutex in simulation code guards against a second thread that the
// scheduler never runs.
var mu sync.Mutex

func locked() {
	mu.Lock()
	mu.Unlock()
}
