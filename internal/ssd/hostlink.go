package ssd

import "repro/internal/sim"

// hostXfer is one transfer waiting for the host link: how long it
// holds the link and what fires when it lands.
type hostXfer struct {
	d    sim.Time
	done sim.Handler
}

// hostLink is the device's host interface: one transfer crosses it at
// a time, in arrival order. Like the die and channel stations it keeps
// its running transfer's continuation here and is itself the handler
// that fires at the transfer's end; waiting transfers are values in a
// ring, so the link allocates only while its backlog sets a new
// high-water mark.
type hostLink struct {
	eng     *sim.Engine
	busy    bool
	done    sim.Handler // the running transfer's continuation
	pending ring[hostXfer]
}

// transfer holds the link for d once the transfers ahead of it have
// crossed, then fires done.
//
//riflint:hotpath
func (h *hostLink) transfer(d sim.Time, done sim.Handler) {
	if h.busy {
		h.pending.push(hostXfer{d: d, done: done})
		return
	}
	h.start(d, done)
}

// start puts a transfer on the link.
func (h *hostLink) start(d sim.Time, done sim.Handler) {
	h.busy, h.done = true, done
	h.eng.After(d, h)
}

// Fire ends the running transfer. It releases the link, starts the
// next waiting transfer, then fires the finished one's continuation,
// so a continuation that queues another transfer lines up behind the
// one already started.
//
//riflint:hotpath
func (h *hostLink) Fire() {
	done := h.done
	h.busy, h.done = false, nil
	if h.pending.len() > 0 {
		next := h.pending.pop()
		h.start(next.d, next.done)
	}
	done.Fire()
}
