package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSchedulerResultsWorkerInvariant pins the core determinism claim:
// MapOn's output is identical for any worker count and any steal
// interleaving, because results are keyed by index.
func TestSchedulerResultsWorkerInvariant(t *testing.T) {
	const n = 64
	var want []string
	for _, workers := range []int{1, 2, 3, 8, 32} {
		s := NewScheduler(workers)
		got, err := MapOn(s, n, nil, func(i int) (string, error) {
			return fmt.Sprintf("cell-%03d", i*i), nil
		})
		s.Stop()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %q, want %q", workers, i, got[i], want[i])
			}
		}
	}
}

// TestSchedulerStealsUnderImbalance forces the shape work-stealing
// exists for: one worker stuck on a slow cell while its deque still
// holds work. The idle worker must steal (steal counter > 0) and the
// output must still be complete.
//
// With two workers the round-robin deal puts the even indices on one
// deque and the odd ones on the other. Even cells spin until a steal
// has happened, odd cells return immediately — so whichever worker
// pops an even cell first is pinned there, the other drains the odd
// cells, empties its own deque, and has no way forward but to steal.
// A cell obtained by stealing never spins (the counter is already
// positive), so the grid always completes.
func TestSchedulerStealsUnderImbalance(t *testing.T) {
	s := NewScheduler(2)
	defer s.Stop()

	const n = 40
	var ran atomic.Int32
	err := s.RunStop(n, nil, func(i int) error {
		if i%2 == 0 {
			for s.Steals() == 0 {
				runtime.Gosched()
			}
		}
		ran.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != n {
		t.Fatalf("ran %d of %d cells", got, n)
	}
	if s.Steals() == 0 {
		t.Fatal("no steals under a forced imbalance; work-stealing is not engaging")
	}
}

// TestSchedulerSharedAcrossGrids runs several concurrent grids through
// one scheduler — the serving-layer shape — and checks each grid's
// results stay isolated and complete.
func TestSchedulerSharedAcrossGrids(t *testing.T) {
	s := NewScheduler(4)
	defer s.Stop()

	const grids, n = 8, 40
	var wg sync.WaitGroup
	results := make([][]int, grids)
	errs := make([]error, grids)
	for g := 0; g < grids; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = MapOn(s, n, nil, func(i int) (int, error) {
				return g*1000 + i, nil
			})
		}(g)
	}
	wg.Wait()
	for g := 0; g < grids; g++ {
		if errs[g] != nil {
			t.Fatalf("grid %d: %v", g, errs[g])
		}
		for i, v := range results[g] {
			if v != g*1000+i {
				t.Fatalf("grid %d slot %d = %d", g, i, v)
			}
		}
	}
}

// TestSchedulerStopDrainsQueuedWork pins the drain contract: Stop
// skips queued-but-unstarted cells (their grid returns ErrStopped, the
// submitter does not hang) and later submissions fail fast.
func TestSchedulerStopDrainsQueuedWork(t *testing.T) {
	s := NewScheduler(1)
	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	done := make(chan error, 1)
	go func() {
		done <- s.RunStop(10, nil, func(i int) error {
			once.Do(func() { close(entered) })
			<-gate
			return nil
		})
	}()
	<-entered
	stopDone := make(chan struct{})
	go func() { s.Stop(); close(stopDone) }()
	// Release the running cell only after Stop's critical section has
	// drained the deques, so the worker cannot race ahead and run the
	// queued cells first.
	for {
		s.mu.Lock()
		stopped := s.stopped
		s.mu.Unlock()
		if stopped {
			break
		}
		runtime.Gosched()
	}
	close(gate)
	<-stopDone
	if err := <-done; !errors.Is(err, ErrStopped) {
		t.Fatalf("drained grid err = %v, want ErrStopped", err)
	}
	if err := s.RunStop(1, nil, func(int) error { return nil }); !errors.Is(err, ErrStopped) {
		t.Fatalf("post-Stop submit err = %v, want ErrStopped", err)
	}
}
