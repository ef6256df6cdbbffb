package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// runOnce is the one-shot grid shape: a private Scheduler of the given
// size, stopped as soon as the grid returns.
func runOnce(workers, n int, stop func() bool, fn func(i int) error) error {
	s := NewScheduler(workers)
	defer s.Stop()
	return s.RunStop(n, stop, fn)
}

// mapOnce is runOnce for MapOn.
func mapOnce[T any](workers, n int, stop func() bool, fn func(i int) (T, error)) ([]T, error) {
	s := NewScheduler(workers)
	defer s.Stop()
	return MapOn(s, n, stop, fn)
}

func TestWorkersResolution(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	for _, n := range []int{0, -1} {
		if got := Workers(n); got != want {
			t.Errorf("Workers(%d) = %d, want GOMAXPROCS %d", n, got, want)
		}
	}
}

// TestRunCoversEveryIndexOnce includes grids smaller than the worker
// set, where most workers find nothing to run or steal.
func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		for _, n := range []int{1, 3, 100} {
			counts := make([]atomic.Int32, n)
			err := runOnce(workers, n, nil, func(i int) error {
				counts[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestRunSingleWorkerIsInOrder pins what -workers 1 promises: one
// worker runs a grid's cells in ascending index order, exactly the
// sequential loop. Two grids back to back on one scheduler each run in
// order too.
func TestRunSingleWorkerIsInOrder(t *testing.T) {
	s := NewScheduler(1)
	defer s.Stop()
	for grid := 0; grid < 2; grid++ {
		var order []int
		if err := s.RunStop(10, nil, func(i int) error {
			order = append(order, i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(order) != 10 {
			t.Fatalf("grid %d ran %d cells", grid, len(order))
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("grid %d: single-worker order = %v", grid, order)
			}
		}
	}
}

func TestRunReturnsLowestIndexError(t *testing.T) {
	errA := errors.New("cell 3")
	errB := errors.New("cell 7")
	for _, workers := range []int{1, 4} {
		err := runOnce(workers, 10, nil, func(i int) error {
			switch i {
			case 3:
				return errA
			case 7:
				return errB
			}
			return nil
		})
		if err != errA {
			t.Errorf("workers=%d: err = %v, want lowest-index error", workers, err)
		}
	}
}

func TestRunZeroAndNegativeN(t *testing.T) {
	for _, n := range []int{0, -5} {
		called := false
		if err := runOnce(4, n, nil, func(int) error { called = true; return nil }); err != nil {
			t.Fatal(err)
		}
		out, err := mapOnce(4, n, nil, func(int) (int, error) { called = true; return 1, nil })
		if err != nil || len(out) != 0 {
			t.Fatalf("n=%d: MapOn = %v, %v; want empty, nil", n, out, err)
		}
		if called {
			t.Errorf("n=%d: fn called", n)
		}
	}
}

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, workers := range []int{1, 8} {
		out, err := mapOnce(workers, 50, nil, func(i int) (string, error) {
			return fmt.Sprintf("cell-%02d", i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if want := fmt.Sprintf("cell-%02d", i); v != want {
				t.Fatalf("workers=%d: out[%d] = %q, want %q", workers, i, v, want)
			}
		}
	}
}

func TestMapParallelEqualsSequential(t *testing.T) {
	fn := func(i int) (int, error) { return i*i + 1, nil }
	seq, err := mapOnce(1, 200, nil, fn)
	if err != nil {
		t.Fatal(err)
	}
	par, err := mapOnce(8, 200, nil, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("results diverge at %d: %d vs %d", i, seq[i], par[i])
		}
	}
}

func TestMapErrorDropsResults(t *testing.T) {
	out, err := mapOnce(2, 5, nil, func(i int) (int, error) {
		if i == 2 {
			return 0, errors.New("boom")
		}
		return i, nil
	})
	if err == nil || out != nil {
		t.Fatalf("out=%v err=%v, want nil slice and error", out, err)
	}
}

func TestRunRecoversPanickingCell(t *testing.T) {
	for _, workers := range []int{1, 4} {
		counts := make([]atomic.Int32, 10)
		err := runOnce(workers, 10, nil, func(i int) error {
			counts[i].Add(1)
			if i == 4 {
				panic("cell exploded")
			}
			return nil
		})
		var pe *CellPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *CellPanicError", workers, err)
		}
		if pe.Cell != 4 || pe.Value != "cell exploded" {
			t.Fatalf("workers=%d: panic error = %+v", workers, pe)
		}
		// The other cells must still have run: one bad cell does not
		// take down the grid.
		for i := range counts {
			if counts[i].Load() != 1 {
				t.Fatalf("workers=%d: cell %d ran %d times", workers, i, counts[i].Load())
			}
		}
	}
}

func TestRunReportsLowestIndexPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := runOnce(workers, 10, nil, func(i int) error {
			if i == 3 || i == 8 {
				panic(i)
			}
			return nil
		})
		var pe *CellPanicError
		if !errors.As(err, &pe) || pe.Cell != 3 {
			t.Fatalf("workers=%d: err = %v, want cell 3 panic", workers, err)
		}
	}
}

func TestRunStopSkipsRemainingCells(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		stop := func() bool { return ran.Load() >= 5 }
		err := runOnce(workers, 20, stop, func(i int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("workers=%d: err = %v, want ErrStopped", workers, err)
		}
		// With w workers, at most w cells can already be past the stop
		// poll when the predicate flips.
		if n := ran.Load(); n < 5 || n >= 20 {
			t.Fatalf("workers=%d: %d cells ran", workers, n)
		}
	}
}

func TestRunStopNilAndNeverFiringAreComplete(t *testing.T) {
	if err := runOnce(2, 10, nil, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := runOnce(2, 10, func() bool { return false }, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestMapStopReturnsPartialResults: a cancelled one-worker grid keeps
// the cells it completed, and they form an index prefix.
func TestMapStopReturnsPartialResults(t *testing.T) {
	var ran atomic.Int32
	stop := func() bool { return ran.Load() >= 3 }
	out, err := mapOnce(1, 10, stop, func(i int) (int, error) {
		ran.Add(1)
		return i + 100, nil
	})
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	want := []int{100, 101, 102, 0, 0, 0, 0, 0, 0, 0}
	if fmt.Sprint(out) != fmt.Sprint(want) {
		t.Fatalf("partial results = %v, want %v", out, want)
	}
}

// TestCellErrorBeatsStop: a real cell failure must surface even if the
// stop hook also fired: the error is the more important signal.
func TestCellErrorBeatsStop(t *testing.T) {
	boom := errors.New("boom")
	var failed atomic.Bool
	err := runOnce(1, 5, failed.Load, func(i int) error {
		if i == 1 {
			failed.Store(true)
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}
