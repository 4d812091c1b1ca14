package a

// A test's second thread would race on state only the token guards.
func spawnInTest() {
	go work() // want `raw goroutine bypasses sim\.Scheduler`
	<-done
}
