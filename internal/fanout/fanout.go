// Package fanout runs n independent, index-addressed tasks on a few
// goroutines with the failure semantics of the serial loop they
// replace. Callers write each task's result into its own slot, so no
// floating-point operation changes order with the schedule.
package fanout

import (
	"runtime"
	"sync"
)

// ForEach runs fn(0) … fn(n-1) over min(GOMAXPROCS, limit, n) workers
// and returns the error of the lowest failing index. Workers take
// indices in order and take none after any failure; every worker has
// returned when ForEach does. One worker is the serial loop on the
// calling goroutine.
func ForEach(n, limit int, fn func(i int) error) error {
	errs := make([]error, n)
	var (
		mu     sync.Mutex
		next   int
		failed bool
	)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if failed || next == n {
			return 0, false
		}
		next++
		return next - 1, true
	}
	work := func() {
		for i, ok := take(); ok; i, ok = take() {
			if errs[i] = fn(i); errs[i] != nil {
				mu.Lock()
				failed = true
				mu.Unlock()
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), limit, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
