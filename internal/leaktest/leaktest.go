// Package leaktest holds the two resource checks the concurrent-build tests
// share: open file descriptors and live goroutines, before and after a call
// that must release everything it started.
package leaktest

import (
	"os"
	"runtime"
	"testing"
	"time"
)

// OpenFDs counts this process's open file descriptors. It skips the test
// where /proc/self/fd does not exist.
func OpenFDs(t testing.TB) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// SettleGoroutines waits for the goroutine count to come back down to want
// and fails the test if it does not.
func SettleGoroutines(t testing.TB, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > want {
		t.Fatalf("%d goroutines, want at most %d: a goroutine outlived the call that started it", got, want)
	}
}
