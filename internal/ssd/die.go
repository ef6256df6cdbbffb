package ssd

import (
	"repro/internal/sim"
)

// DiePolicy selects how a die schedules reads against programs and
// erases.
type DiePolicy int

const (
	// DieFIFO serves operations strictly in arrival order (the
	// baseline used for all paper-calibrated results).
	DieFIFO DiePolicy = iota
	// DieReadPriority serves queued reads before queued programs but
	// never interrupts a running operation.
	DieReadPriority
	// DieSuspension additionally suspends an in-flight program or
	// erase when a read arrives, resuming it afterwards with a
	// resume penalty — the read-program suspension modern chips
	// implement (and MQSim-E models).
	DieSuspension
)

// String names the policy.
func (p DiePolicy) String() string {
	switch p {
	case DieFIFO:
		return "fifo"
	case DieReadPriority:
		return "read-priority"
	case DieSuspension:
		return "suspension"
	}
	return "unknown"
}

// dieOp is one array operation. The station queues ops by value, so
// queuing one allocates only when the die's backlog outgrows its
// ring's buffer, the first of which is carved from a device slab.
// Whether it is a read is told by the queue it waits in (readRunning),
// which keeps it at 40 bytes.
type dieOp struct {
	dur   sim.Time
	label string
	done  sim.Handler
}

// dieStation schedules one die's array operations. Unlike the plain
// FIFO resource it can prioritize reads and suspend programs.
type dieStation struct {
	eng           *sim.Engine
	policy        DiePolicy
	resumePenalty sim.Time
	name          string
	// record, when non-nil, receives each completed occupancy (for
	// timeline rendering).
	record func(resource, label string, start, end sim.Time)

	readQ ring[dieOp]
	progQ ring[dieOp]

	// The die runs one operation at a time, so the operation, its start
	// and finish instants live here, and the station itself is the
	// handler that fires at every operation's end.
	running dieOp
	busy    bool
	// readRunning marks a running operation taken from readQ. Under
	// DieSuspension, the one policy that preempts, every read queues
	// there, so the mark tells a read apart from a program.
	readRunning bool
	// hasSuspended marks a program waiting in suspended.
	hasSuspended bool
	startedAt    sim.Time
	finishAt     sim.Time

	// suspended is the preempted program, with its remaining time as
	// dur. One slot is enough: kick resumes it before any queued program
	// starts, and only a running program is preempted, so a second
	// program is never suspended while one waits.
	suspended dieOp
	// stale holds the old finish times of preempted programs, whose
	// events still fire: Fire ignores a firing at the head's instant.
	// The times strictly increase, since a preempted program resumes
	// before any other program starts and ends after its old finish;
	// and at a tied instant the stale event fires first, since it was
	// scheduled before the preemption.
	stale ring[sim.Time]

	// suspensions counts program/erase preemptions, for metrics.
	suspensions int64
	// qHigh is the queue-depth high-water mark (reads + programs +
	// suspended), for observability.
	qHigh int
}

// noteDepth refreshes the queue-depth high-water mark.
func (d *dieStation) noteDepth() {
	depth := d.readQ.len() + d.progQ.len()
	if d.busy {
		depth++
	}
	if d.hasSuspended {
		depth++
	}
	if depth > d.qHigh {
		d.qHigh = depth
	}
}

// newDieStation builds a die whose queues carve their first buffers
// from slab (nil: each makes its own).
func newDieStation(eng *sim.Engine, policy DiePolicy, resumePenalty sim.Time, slab *[]dieOp) dieStation {
	d := dieStation{eng: eng, policy: policy, resumePenalty: resumePenalty}
	d.readQ.slab, d.progQ.slab = slab, slab
	return d
}

// Read schedules a sense operation of the given duration; label
// names it on the timeline.
//
//riflint:hotpath
func (d *dieStation) Read(dur sim.Time, label string, done sim.Handler) {
	op := dieOp{dur: dur, label: label, done: done}
	if d.policy == DieFIFO {
		d.progQ.push(op) // single queue in FIFO mode
	} else {
		d.readQ.push(op)
	}
	d.noteDepth()
	d.maybePreempt()
	d.kick()
}

// Program schedules a program/erase/GC occupancy; done may be nil.
func (d *dieStation) Program(dur sim.Time, done sim.Handler) {
	d.progQ.push(dieOp{dur: dur, label: "W", done: done})
	d.noteDepth()
	d.kick()
}

// maybePreempt suspends a running program when policy allows and a
// read is waiting.
func (d *dieStation) maybePreempt() {
	if d.policy != DieSuspension || !d.busy || d.readRunning || d.readQ.len() == 0 {
		return
	}
	remaining := d.finishAt - d.eng.Now()
	if remaining <= 0 {
		return // completing this instant
	}
	d.stale.push(d.finishAt)
	d.suspended, d.hasSuspended = d.running, true
	d.suspended.dur = remaining + d.resumePenalty
	d.suspensions++
	d.running, d.busy = dieOp{}, false
}

// kick starts the next operation if the die is free.
func (d *dieStation) kick() {
	if d.busy {
		return
	}
	var op dieOp
	d.readRunning = d.readQ.len() > 0
	switch {
	case d.readRunning:
		op = d.readQ.pop()
	case d.hasSuspended:
		op = d.suspended
		d.suspended, d.hasSuspended = dieOp{}, false
	case d.progQ.len() > 0:
		op = d.progQ.pop()
	default:
		return
	}
	d.running, d.busy = op, true
	d.startedAt = d.eng.Now()
	d.finishAt = d.startedAt + op.dur
	d.eng.After(op.dur, d)
}

// Fire completes the running operation: record its occupancy, fire
// its continuation, start the next. A firing at the instant of the
// oldest stale finish is that preempted program's old end, and passes.
//
//riflint:hotpath
func (d *dieStation) Fire() {
	if d.stale.len() > 0 && d.stale.peek() == d.eng.Now() {
		d.stale.pop()
		return
	}
	op := d.running
	d.running, d.busy = dieOp{}, false
	if d.record != nil {
		d.record(d.name, op.label, d.startedAt, d.eng.Now())
	}
	if op.done != nil {
		op.done.Fire()
	}
	d.kick()
}

// Idle reports whether the die has no running or queued work.
func (d *dieStation) Idle() bool {
	return !d.busy && d.readQ.len() == 0 && d.progQ.len() == 0 && !d.hasSuspended
}

// Suspensions reports how many preemptions occurred.
func (d *dieStation) Suspensions() int64 { return d.suspensions }
