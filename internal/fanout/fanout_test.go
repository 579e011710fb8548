package fanout

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diestack/internal/leakcheck"
)

// TestForEachErrors pins the failure semantics of the fan-out: the lowest
// failing index wins, no index is started after a failure, and a
// failure still waits for the tasks running beside it, leaving no
// worker behind.
func TestForEachErrors(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	base := runtime.NumGoroutine()

	var ran []int
	err := ForEach(4, 4, func(i int) error {
		ran = append(ran, i)
		if i == 1 {
			return fmt.Errorf("option %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "option 1" {
		t.Fatalf("err = %v, want option 1", err)
	}
	if !reflect.DeepEqual(ran, []int{0, 1}) {
		t.Fatalf("ran %v after the failure at 1, want [0 1]", ran)
	}

	// Concurrent: index 3 fails first, while 0–2 are still running and
	// 1 and 2 fail too; the error of index 1 must win.
	runtime.GOMAXPROCS(4)
	var started sync.WaitGroup
	started.Add(4)
	release := make(chan struct{})
	go func() {
		started.Wait()
		close(release)
	}()
	err = ForEach(4, 4, func(i int) error {
		started.Done()
		if i == 3 {
			return fmt.Errorf("option %d", i)
		}
		<-release
		if i == 0 {
			return nil
		}
		return fmt.Errorf("option %d", i)
	})
	if err == nil || err.Error() != "option 1" {
		t.Fatalf("concurrent err = %v, want option 1", err)
	}

	// Index 0, which the calling goroutine normally takes first, fails
	// at once while index 1 still runs on a worker: ForEach must not
	// return before index 1 does.
	var returned atomic.Bool
	outlived := make(chan int, 1)
	var pair sync.WaitGroup
	pair.Add(2)
	err = ForEach(2, 2, func(i int) error {
		pair.Done()
		pair.Wait()
		if i == 0 {
			return fmt.Errorf("option %d", i)
		}
		time.Sleep(20 * time.Millisecond)
		if returned.Load() {
			outlived <- i
		}
		return nil
	})
	returned.Store(true)
	if err == nil || err.Error() != "option 0" {
		t.Fatalf("pair err = %v, want option 0", err)
	}
	leakcheck.Settle(t, base)
	if len(outlived) > 0 {
		t.Fatalf("task %d was still running when ForEach returned", <-outlived)
	}
}

// TestForEachLimit: no more than limit tasks run at once, whatever
// GOMAXPROCS allows; Figure 5 relies on it to bound its live
// simulators.
func TestForEachLimit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base := runtime.NumGoroutine()
	var (
		mu            sync.Mutex
		running, peak int
	)
	err := ForEach(16, 2, func(int) error {
		mu.Lock()
		running++
		peak = max(peak, running)
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		running--
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > 2 {
		t.Fatalf("%d tasks ran at once, want <= 2", peak)
	}
	mu.Lock()
	defer mu.Unlock()
	if running != 0 {
		t.Fatalf("%d tasks still running when ForEach returned", running)
	}
	leakcheck.Settle(t, base)
}
