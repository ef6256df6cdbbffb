package ssd

import "repro/internal/sim"

// hostXfer is one transfer waiting for the host link: how long it
// holds the link and what resumes when it lands.
type hostXfer struct {
	d    sim.Time
	done resumer
}

// hostLink is the device's host interface: one transfer crosses it at
// a time, in arrival order. Like the die and channel stations it keeps
// its running transfer's continuation here and schedules one finish
// handler, bound once in newHostLink; waiting transfers are values in
// a ring, so the link allocates only while its backlog sets a new
// high-water mark.
type hostLink struct {
	eng      *sim.Engine
	busy     bool
	done     resumer // the running transfer's continuation
	pending  ring[hostXfer]
	onFinish func()
}

func newHostLink(eng *sim.Engine) *hostLink {
	h := &hostLink{eng: eng}
	h.onFinish = h.finish
	return h
}

// transfer holds the link for d once the transfers ahead of it have
// crossed, then resumes done.
//
//riflint:hotpath
func (h *hostLink) transfer(d sim.Time, done resumer) {
	if h.busy {
		h.pending.push(hostXfer{d: d, done: done})
		return
	}
	h.start(d, done)
}

// start puts a transfer on the link.
func (h *hostLink) start(d sim.Time, done resumer) {
	h.busy, h.done = true, done
	h.eng.After(d, h.onFinish)
}

// finish ends the running transfer. It releases the link, starts the
// next waiting transfer, then runs the finished one's continuation, so
// a continuation that queues another transfer lines up behind the one
// already started.
//
//riflint:hotpath
func (h *hostLink) finish() {
	done := h.done
	h.busy, h.done = false, nil
	if h.pending.len() > 0 {
		next := h.pending.pop()
		h.start(next.d, next.done)
	}
	done.resume()
}
