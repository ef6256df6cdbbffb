package ssd

import (
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// fire adapts a closure to a sim.Handler, so station tests can hand
// the engine and the stations plain funcs as continuations.
type fire func()

func (f fire) Fire() { f() }

// TestQueuedRecordSizes pins the sizes of the records stations queue by
// value, which their rings copy and a fresh device's first buffers
// hold: a sim.Handler is two words where a func was one, so each
// record packs its flags to stay the size it was.
func TestQueuedRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(dieOp{}); n != 40 {
		t.Errorf("dieOp is %d bytes, want 40", n)
	}
	if n := unsafe.Sizeof(xferJob{}); n != 64 {
		t.Errorf("xferJob is %d bytes, want 64", n)
	}
}

func TestDieFIFOOrder(t *testing.T) {
	eng := sim.NewEngine()
	d := newDieStation(eng, DieFIFO, 0, nil)
	var order []string
	eng.At(0, fire(func() {
		d.Program(100, fire(func() { order = append(order, "prog") }))
		d.Read(10, "R", fire(func() { order = append(order, "read") }))
	}))
	eng.Run()
	if order[0] != "prog" || order[1] != "read" {
		t.Fatalf("FIFO violated: %v", order)
	}
	if !d.Idle() || d.Suspensions() != 0 {
		t.Fatal("die state wrong after drain")
	}
}

func TestDieReadPriorityJumpsQueue(t *testing.T) {
	eng := sim.NewEngine()
	d := newDieStation(eng, DieReadPriority, 0, nil)
	var order []string
	var readDone sim.Time
	eng.At(0, fire(func() {
		d.Program(100, fire(func() { order = append(order, "p1") }))
		d.Program(100, fire(func() { order = append(order, "p2") }))
		d.Read(10, "R", fire(func() { order = append(order, "read"); readDone = eng.Now() }))
	}))
	eng.Run()
	// The read overtakes p2 but does not preempt p1.
	if order[0] != "p1" || order[1] != "read" || order[2] != "p2" {
		t.Fatalf("priority order: %v", order)
	}
	if readDone != 110 {
		t.Fatalf("read done at %v, want 110", readDone)
	}
}

func TestDieSuspensionPreemptsProgram(t *testing.T) {
	eng := sim.NewEngine()
	const penalty = 20
	d := newDieStation(eng, DieSuspension, penalty, nil)
	var readDone, progDone sim.Time
	eng.At(0, fire(func() {
		d.Program(400, fire(func() { progDone = eng.Now() }))
	}))
	eng.At(50, fire(func() {
		d.Read(40, "R", fire(func() { readDone = eng.Now() }))
	}))
	eng.Run()
	// Read preempts at t=50, finishes at 90.
	if readDone != 90 {
		t.Fatalf("read done at %v, want 90", readDone)
	}
	// Program: 50 done + (350 remaining + 20 penalty) after the read.
	if progDone != 90+350+penalty {
		t.Fatalf("program done at %v, want %v", progDone, sim.Time(90+350+penalty))
	}
	if d.Suspensions() != 1 {
		t.Fatalf("suspensions = %d", d.Suspensions())
	}
}

func TestDieSuspensionDoesNotPreemptReads(t *testing.T) {
	eng := sim.NewEngine()
	d := newDieStation(eng, DieSuspension, 20, nil)
	var first sim.Time
	eng.At(0, fire(func() { d.Read(40, "R", fire(func() { first = eng.Now() })) }))
	eng.At(10, fire(func() { d.Read(40, "R", nil) }))
	eng.Run()
	if first != 40 {
		t.Fatalf("running read was disturbed: done at %v", first)
	}
	if d.Suspensions() != 0 {
		t.Fatal("a read was suspended")
	}
}

func TestDieSuspensionNestedPreemptions(t *testing.T) {
	// Two reads arrive during one long erase; both preempt, and the
	// erase eventually finishes with both penalties.
	eng := sim.NewEngine()
	const penalty = 20
	d := newDieStation(eng, DieSuspension, penalty, nil)
	var eraseDone sim.Time
	eng.At(0, fire(func() { d.Program(3500, fire(func() { eraseDone = eng.Now() })) }))
	eng.At(100, fire(func() { d.Read(40, "R", nil) }))
	eng.At(1000, fire(func() { d.Read(40, "R", nil) }))
	eng.Run()
	// Total = 3500 + 2*40 (reads) + 2*20 (penalties).
	if want := sim.Time(3500 + 80 + 40); eraseDone != want {
		t.Fatalf("erase done at %v, want %v", eraseDone, want)
	}
	if d.Suspensions() != 2 {
		t.Fatalf("suspensions = %d", d.Suspensions())
	}
}

// TestDieSuspensionReadEndsAtStaleFinish pins a read that ends at the
// very instant the program it preempted would have finished: the
// program's old finish must not complete the read or the resumed
// program, at that instant or later.
func TestDieSuspensionReadEndsAtStaleFinish(t *testing.T) {
	eng := sim.NewEngine()
	const penalty = 20
	d := newDieStation(eng, DieSuspension, penalty, nil)
	var reads, progs []sim.Time
	eng.At(0, fire(func() {
		d.Program(400, fire(func() { progs = append(progs, eng.Now()) }))
	}))
	eng.At(50, fire(func() {
		// Preempts at 50 with 350 left, and ends at 400: the
		// program's old finish.
		d.Read(350, "R", fire(func() { reads = append(reads, eng.Now()) }))
	}))
	eng.Run()
	if want := []sim.Time{400}; !slices.Equal(reads, want) {
		t.Fatalf("read done at %v, want %v", reads, want)
	}
	if want := sim.Time(400 + 350 + penalty); len(progs) != 1 || progs[0] != want {
		t.Fatalf("program done at %v, want [%v]", progs, want)
	}
	if d.Suspensions() != 1 || !d.Idle() {
		t.Fatalf("suspensions = %d, idle = %v", d.Suspensions(), d.Idle())
	}
}

// TestDieSuspensionTwoStaleFinishes preempts one program twice, so two
// of its old finishes are pending at once: the first passes while the
// second read runs, and the second read ends exactly at the second.
func TestDieSuspensionTwoStaleFinishes(t *testing.T) {
	eng := sim.NewEngine()
	const penalty = 20
	d := newDieStation(eng, DieSuspension, penalty, nil)
	var reads, progs []sim.Time
	done := fire(func() { reads = append(reads, eng.Now()) })
	eng.At(0, fire(func() {
		d.Program(400, fire(func() { progs = append(progs, eng.Now()) }))
	}))
	// Preempts at 50 with 350 left (old finish 400); the read ends at
	// 150 and the program resumes to finish at 150+350+20 = 520.
	eng.At(50, fire(func() { d.Read(100, "R", done) }))
	// Preempts at 200 with 320 left (old finish 520), while the first
	// old finish, 400, is still pending; the read ends at 520.
	eng.At(200, fire(func() { d.Read(320, "R", done) }))
	eng.Run()
	if want := []sim.Time{150, 520}; !slices.Equal(reads, want) {
		t.Fatalf("reads done at %v, want %v", reads, want)
	}
	if want := sim.Time(520 + 320 + penalty); len(progs) != 1 || progs[0] != want {
		t.Fatalf("program done at %v, want [%v]", progs, want)
	}
	if d.Suspensions() != 2 || !d.Idle() {
		t.Fatalf("suspensions = %d, idle = %v", d.Suspensions(), d.Idle())
	}
}

func TestSuspensionImprovesReadTail(t *testing.T) {
	// End to end: with program suspension, read latencies on a mixed
	// workload improve and the metric records the preemptions.
	mk := func(policy DiePolicy) *Metrics {
		cfg := smallConfig(RiF, 1000)
		cfg.DiePolicy = policy
		return run(t, cfg, smallWorkload(t, "Sys0", 2), 400)
	}
	fifo := mk(DieFIFO)
	susp := mk(DieSuspension)
	if susp.Suspensions == 0 {
		t.Fatal("no suspensions recorded")
	}
	if fifo.Suspensions != 0 {
		t.Fatal("FIFO policy recorded suspensions")
	}
	if susp.ReadLatencies.Percentile(99) >= fifo.ReadLatencies.Percentile(99) {
		t.Fatalf("suspension did not improve read p99: %v vs %v",
			susp.ReadLatencies.Percentile(99), fifo.ReadLatencies.Percentile(99))
	}
}

func TestDiePolicyNames(t *testing.T) {
	if DieFIFO.String() != "fifo" || DieReadPriority.String() != "read-priority" || DieSuspension.String() != "suspension" {
		t.Fatal("policy names wrong")
	}
}

// TestDieSuspensionHoldsOneProgram drives one suspending die with
// programs and reads at random instants, many of them at a running
// operation's finish. It fails if a read ever arrives while a program
// runs and another waits suspended (the one state in which a second
// program would be suspended), and if any operation does not complete
// exactly once.
func TestDieSuspensionHoldsOneProgram(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		eng := sim.NewEngine()
		d := newDieStation(eng, DieSuspension, 20, nil)
		const ops = 400
		done := make([]int, ops)
		var arrive func(i int)
		arrive = func(i int) {
			complete := fire(func() { done[i]++ })
			if rng.IntN(3) == 0 {
				d.Program(sim.Time(100+rng.IntN(3500)), complete)
			} else {
				if d.hasSuspended && d.busy && !d.readRunning {
					t.Fatalf("seed %d: a read arrives at %v while a program runs and another is suspended", seed, eng.Now())
				}
				d.Read(sim.Time(10+rng.IntN(100)), "R", complete)
			}
			if i+1 == ops {
				return
			}
			next := eng.Now() + sim.Time(rng.IntN(300))
			if d.busy && rng.IntN(4) == 0 {
				next = d.finishAt // a tie with the running operation's finish
			}
			eng.At(next, fire(func() { arrive(i + 1) }))
		}
		eng.At(0, fire(func() { arrive(0) }))
		eng.Run()
		for i, n := range done {
			if n != 1 {
				t.Fatalf("seed %d: operation %d completed %d times", seed, i, n)
			}
		}
		if !d.Idle() || d.Suspensions() == 0 {
			t.Fatalf("seed %d: idle = %v after %d suspensions", seed, d.Idle(), d.Suspensions())
		}
	}
}
