package a

// A test's second thread would run beside the scheduler's one proc.
func spawnInTest() {
	go work() // want `raw goroutine bypasses sim\.Scheduler`
	<-done
}
