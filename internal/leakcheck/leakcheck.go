// Package leakcheck is the tests' goroutine-leak check: a test records
// runtime.NumGoroutine before it starts what it tests, closes
// everything, and Settle fails it if the count does not fall back.
// Goroutines that have signalled their exit may still be counted for
// a moment, so Settle polls rather than compares once.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// Settle waits up to five seconds for the goroutine count to fall back
// to base, and fails t with every goroutine's stack if it does not.
func Settle(t testing.TB, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines: %d, want %d once everything started has returned\n%s",
				runtime.NumGoroutine(), base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
