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

// dieOp is one array operation. The station recycles ops through its
// free list, so queuing one allocates only while the die's backlog
// sets a new high-water mark.
type dieOp struct {
	dur    sim.Time
	isRead bool
	label  string
	done   func()
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

	readQ ring[*dieOp]
	progQ ring[*dieOp]
	free  []*dieOp

	// The die runs one operation at a time, so its start instant and
	// finish event live here, and one finish handler — bound once in
	// newDieStation — serves every operation.
	running   *dieOp
	startedAt sim.Time
	finishAt  sim.Time
	finishEvt sim.EventID
	onFinish  func()

	suspended  []*dieOp   // preempted programs, LIFO
	suspRemain []sim.Time // remaining time of each suspended op

	// suspensions counts program/erase preemptions, for metrics.
	suspensions int64
	// qHigh is the queue-depth high-water mark (reads + programs +
	// suspended), for observability.
	qHigh int
}

// noteDepth refreshes the queue-depth high-water mark.
func (d *dieStation) noteDepth() {
	depth := d.readQ.len() + d.progQ.len() + len(d.suspended)
	if d.running != nil {
		depth++
	}
	if depth > d.qHigh {
		d.qHigh = depth
	}
}

func newDieStation(eng *sim.Engine, policy DiePolicy, resumePenalty sim.Time) *dieStation {
	d := &dieStation{eng: eng, policy: policy, resumePenalty: resumePenalty}
	d.onFinish = d.finish
	return d
}

// newOp takes an op from the free list.
func (d *dieStation) newOp(dur sim.Time, isRead bool, label string, done func()) *dieOp {
	var op *dieOp
	if n := len(d.free); n > 0 {
		op = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		//riflint:allow alloc -- free-list refill: one op per backlog high-water slot, reused after
		op = &dieOp{}
	}
	*op = dieOp{dur: dur, isRead: isRead, label: label, done: done}
	return op
}

// Read schedules a sense operation of the given duration.
func (d *dieStation) Read(dur sim.Time, done func()) {
	d.ReadLabeled(dur, "", done)
}

// ReadLabeled is Read with a timeline label.
//
//riflint:hotpath
func (d *dieStation) ReadLabeled(dur sim.Time, label string, done func()) {
	op := d.newOp(dur, true, label, done)
	if d.policy == DieFIFO {
		d.progQ.push(op) // single queue in FIFO mode
	} else {
		d.readQ.push(op)
	}
	d.noteDepth()
	d.maybePreempt()
	d.kick()
}

// Program schedules a program/erase/GC occupancy.
func (d *dieStation) Program(dur sim.Time, done func()) {
	d.progQ.push(d.newOp(dur, false, "W", done))
	d.noteDepth()
	d.kick()
}

// maybePreempt suspends a running program when policy allows and a
// read is waiting.
func (d *dieStation) maybePreempt() {
	if d.policy != DieSuspension || d.running == nil || d.running.isRead || d.readQ.len() == 0 {
		return
	}
	remaining := d.finishAt - d.eng.Now()
	if remaining <= 0 {
		return // completing this instant
	}
	d.eng.Cancel(d.finishEvt)
	//riflint:allow alloc -- suspension stack: grows only at a new preemption-depth high-water mark
	d.suspended = append(d.suspended, d.running)
	//riflint:allow alloc -- parallel to suspended
	d.suspRemain = append(d.suspRemain, remaining+d.resumePenalty)
	d.suspensions++
	d.running = nil
}

// kick starts the next operation if the die is free.
func (d *dieStation) kick() {
	if d.running != nil {
		return
	}
	var op *dieOp
	switch {
	case d.readQ.len() > 0:
		op = d.readQ.pop()
	case len(d.suspended) > 0:
		// Resume the most recently suspended program.
		n := len(d.suspended) - 1
		op = d.suspended[n]
		op.dur = d.suspRemain[n]
		d.suspended = d.suspended[:n]
		d.suspRemain = d.suspRemain[:n]
	case d.progQ.len() > 0:
		op = d.progQ.pop()
	default:
		return
	}
	d.running = op
	d.startedAt = d.eng.Now()
	d.finishAt = d.startedAt + op.dur
	d.finishEvt = d.eng.After(op.dur, d.onFinish)
}

// finish completes the running operation: record its occupancy,
// recycle the op, run its continuation, start the next.
//
//riflint:hotpath
func (d *dieStation) finish() {
	op := d.running
	d.running = nil
	if d.record != nil {
		d.record(d.name, op.label, d.startedAt, d.eng.Now())
	}
	done := op.done
	*op = dieOp{}
	//riflint:allow alloc -- returns the op to the free list, within the capacity newOp vacated
	d.free = append(d.free, op)
	if done != nil {
		done()
	}
	d.kick()
}

// Idle reports whether the die has no running or queued work.
func (d *dieStation) Idle() bool {
	return d.running == nil && d.readQ.len() == 0 && d.progQ.len() == 0 && len(d.suspended) == 0
}

// Suspensions reports how many preemptions occurred.
func (d *dieStation) Suspensions() int64 { return d.suspensions }
