package fleet

// Scheduler is the package's one executor: a long-lived worker set
// whose workers each own a deque of grid cells. A submitted grid's
// cell indices are dealt round-robin across the worker deques, highest
// index first; a worker drains its own deque from the tail (lowest
// index first) and, when empty, steals the front half of the fullest
// sibling deque — the cells its owner would have reached last. Because
// every result is written into a pre-indexed slot, the assembled
// output is byte-identical for any worker count and any steal order.
// With one worker a grid's cells run in ascending index order, so a
// one-worker Scheduler is a sequential loop and a cancelled grid's
// completed cells form an index prefix.
//
// Sharing is the point: the serving layer runs many jobs' grids
// through one Scheduler, so a large grid no longer occupies a worker
// pool wall-to-wall while a two-cell job waits behind it — its cells
// interleave with everyone else's, and idle workers steal from
// whichever deque still has work. One-shot callers start a private
// Scheduler sized to their grid and Stop it when the grid returns.
//
// The determinism contract of the package doc applies unchanged: cell
// fns must not share mutable state between indices.

import (
	"errors"
	"sync"
	"sync/atomic"
)

// task is one grid cell queued on a worker deque.
type task struct {
	g *gridRun
	i int
}

// gridRun is one submitted grid: its cell fn, stop hook, pre-indexed
// error slots, and completion accounting.
type gridRun struct {
	fn      func(i int) error
	stop    func() bool
	errs    []error
	skipped atomic.Bool
	left    atomic.Int64
	done    chan struct{}
}

// finish retires one cell (run or skipped) and closes done when the
// grid is fully accounted for.
func (g *gridRun) finish() {
	if g.left.Add(-1) == 0 {
		close(g.done)
	}
}

// runCell executes cell i unless the grid's stop hook has fired; a
// skipped cell is still accounted so the submitter never hangs.
func (g *gridRun) runCell(i int) {
	if g.skipped.Load() || (g.stop != nil && g.stop()) {
		g.skipped.Store(true)
	} else {
		g.errs[i] = safeCall(i, g.fn)
	}
	g.finish()
}

// Scheduler executes grid cells across a fixed worker set with
// per-worker deques and steal-half balancing. Construct with
// NewScheduler, submit grids with RunStop/MapOn, release the workers
// with Stop.
type Scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	deques  [][]task
	nextRR  int
	stopped bool

	quit   chan struct{}
	wg     sync.WaitGroup
	steals atomic.Int64
}

// NewScheduler starts a scheduler with the given worker count
// (Workers resolves 0 and negatives to one per CPU).
func NewScheduler(workers int) *Scheduler {
	workers = Workers(workers)
	s := &Scheduler{
		deques: make([][]task, workers),
		quit:   make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go s.loop(w, s.quit)
	}
	return s
}

// Steals reports how many times a worker has stolen work from a
// sibling deque since the scheduler started — the load-imbalance
// signal the serving layer exports as a metric.
func (s *Scheduler) Steals() int64 { return s.steals.Load() }

// Stop drains the scheduler: queued-but-unstarted cells are skipped
// (their grids return ErrStopped), cells already running finish
// normally, and every worker goroutine exits before Stop returns.
// Safe to call more than once; submissions after Stop return
// ErrStopped immediately.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	if !s.stopped {
		s.stopped = true
		close(s.quit)
		for w, d := range s.deques {
			for _, t := range d {
				t.g.skipped.Store(true)
				t.g.finish()
			}
			s.deques[w] = nil
		}
	}
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
}

// loop is one worker: pull the next cell (own deque first, then steal
// half from the fullest sibling), run it, repeat until quit.
func (s *Scheduler) loop(w int, quit <-chan struct{}) {
	defer s.wg.Done()
	for {
		select {
		case <-quit:
			return
		default:
		}
		t, ok := s.next(w)
		if !ok {
			return
		}
		t.g.runCell(t.i)
	}
}

// next blocks until worker w has a cell to run or the scheduler
// stops. Own work is popped from the deque tail; an empty deque steals
// the front half of the sibling holding the most work, so a straggler
// grid's remaining cells spread across every idle worker.
func (s *Scheduler) next(w int) (task, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.stopped {
			return task{}, false
		}
		if d := s.deques[w]; len(d) > 0 {
			t := d[len(d)-1]
			s.deques[w] = d[:len(d)-1]
			return t, true
		}
		if victim := s.fullestDeque(w); victim >= 0 {
			s.stealHalf(w, victim)
			d := s.deques[w]
			t := d[len(d)-1]
			s.deques[w] = d[:len(d)-1]
			return t, true
		}
		s.cond.Wait()
	}
}

// fullestDeque picks the sibling with the most queued cells (−1 when
// every other deque is empty). Ties resolve to the lowest index so the
// choice is stable given identical states. Caller holds s.mu.
func (s *Scheduler) fullestDeque(w int) int {
	victim, most := -1, 0
	for i, d := range s.deques {
		if i != w && len(d) > most {
			victim, most = i, len(d)
		}
	}
	return victim
}

// stealHalf moves the front (oldest) half of victim's deque — rounded
// up, so a one-cell deque is stolen whole — onto w's deque. Caller
// holds s.mu and guarantees the victim is non-empty.
func (s *Scheduler) stealHalf(w, victim int) {
	d := s.deques[victim]
	half := (len(d) + 1) / 2
	s.deques[w] = append(s.deques[w], d[:half]...)
	rest := make([]task, len(d)-half)
	copy(rest, d[half:])
	s.deques[victim] = rest
	s.steals.Add(1)
}

// RunStop submits an n-cell grid and blocks until every cell has run
// or been skipped; n <= 0 is a no-op. stop (which may be nil) is
// polled before each cell starts and, once it reports true, no new
// cell of the grid begins — cells already running finish normally.
// A failing cell does not stop the others; the returned error is the
// lowest-index one, so it does not depend on how the cells interleave,
// and a panicking cell is recovered as a *CellPanicError. A grid with skipped cells (stop fired, or the
// scheduler itself was stopped) and no failed cell returns ErrStopped.
//
// Grids submitted concurrently interleave cell-by-cell across the
// shared worker set. A cell fn must not submit to the same scheduler:
// with every worker blocked on inner grids the outer ones could never
// finish.
func (s *Scheduler) RunStop(n int, stop func() bool, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	g := &gridRun{
		fn:   fn,
		stop: stop,
		errs: make([]error, n),
		done: make(chan struct{}),
	}
	g.left.Store(int64(n))

	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return ErrStopped
	}
	// Deal highest index first: each deque then holds its cells in
	// descending order, so the tail pop runs them ascending.
	for i := n - 1; i >= 0; i-- {
		w := s.nextRR % len(s.deques)
		s.nextRR++
		s.deques[w] = append(s.deques[w], task{g, i})
	}
	s.mu.Unlock()
	s.cond.Broadcast()

	<-g.done
	for _, err := range g.errs {
		if err != nil {
			return err
		}
	}
	if g.skipped.Load() {
		return ErrStopped
	}
	return nil
}

// MapOn runs fn over [0, n) through sched.RunStop and returns the
// results in index order. On ErrStopped the partial results are
// returned alongside the error: completed slots hold their values,
// skipped slots hold T's zero value. On any other error the results
// are dropped.
func MapOn[T any](sched *Scheduler, n int, stop func() bool, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, max(n, 0))
	err := sched.RunStop(n, stop, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err == nil || errors.Is(err, ErrStopped) {
		return out, err
	}
	return nil, err
}
