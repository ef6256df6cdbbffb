package ssd

import (
	"repro/internal/sim"
)

// xferKind distinguishes channel jobs.
type xferKind uint8

const (
	xferRead  xferKind = iota // die -> controller, lands in the ECC buffer
	xferWrite                 // controller -> die, no ECC involvement
)

// xferJob is one channel occupancy: a die-command's worth of pages.
// The station queues jobs by value, so submitting allocates only when
// the channel's backlog outgrows its ring's buffer, the first of which
// is carved from a device slab.
type xferJob struct {
	pages int
	// uncorPages of the read's pages will fail the subsequent decode
	// (their transfer time is accounted UNCOR); auxiliary transfers
	// such as sentinel reads set uncorPages = pages.
	uncorPages int
	// engineTime is the ECC engine occupancy once transferred (decode
	// and/or controller-side RP prediction time).
	engineTime sim.Time
	// onDecoded fires when the ECC engine finishes the job (reads)
	// or when the transfer finishes (writes).
	onDecoded sim.Handler
	// label tags the job for timeline rendering.
	label string
	kind  xferKind
	// resends counts injected-corruption re-transfers of this job (at
	// most maxXferResends). Its byte sits beside kind's, which keeps
	// the job at 64 bytes.
	resends uint8
}

// maxXferResends bounds corruption-driven re-transfers of one job;
// past it the data is handed to the ECC engine as-is (which will
// reject it if it is truly damaged).
const maxXferResends = 3

// channelStation couples one flash channel with its dedicated
// channel-level ECC engine (footnote 2 of the paper: the raw page
// must cross the channel into the channel's ECC decoder). The ECC
// engine has a bounded raw-data buffer; when it is full, pending read
// transfers stall even if the channel wires are free — the ECCWAIT
// condition of Figs. 7 and 18.
type channelStation struct {
	eng      *sim.Engine
	tDMAPage sim.Time
	bufSlots int
	name     string
	// record, when non-nil, receives transfer and decode occupancies
	// (for timeline rendering).
	record func(resource, label string, start, end sim.Time)
	// corrupt, when non-nil, draws whether a completed read transfer
	// was corrupted in flight (fault injection); the job is then
	// re-issued from the die's page buffer.
	corrupt func() bool

	busy       bool
	bufInUse   int
	engineBusy bool
	// corruptions counts injected transfer corruptions (re-sends).
	corruptions int64
	// bufHigh and pendHigh are occupancy high-water marks for
	// observability (ECC raw-buffer slots, channel backlog).
	bufHigh  int
	pendHigh int

	pending     ring[xferJob] // waiting for channel (+ buffer for reads)
	decodeQueue ring[xferJob] // transferred, waiting for the ECC engine

	// One transfer and one decode run at a time, so each keeps its job
	// and start instant here. The station is the handler that fires at
	// every transfer's end, and its eccEngine view the one that fires at
	// every decode's end.
	xfer        xferJob
	xferStart   sim.Time
	decoding    xferJob
	decodeStart sim.Time
	// eccName labels the ECC engine's timeline row; built from name on
	// the first recorded decode.
	eccName string

	// Accounting.
	cor, uncor, write sim.Time
	eccWait           sim.Time
	eccWaitSince      sim.Time
	inECCWait         bool
	opened            sim.Time // window start (engine time at creation)
}

// newChannelStation builds a channel whose queues carve their first
// buffers from slab (nil: each makes its own).
func newChannelStation(eng *sim.Engine, tDMAPage sim.Time, bufSlots int, slab *[]xferJob) channelStation {
	c := channelStation{
		eng:      eng,
		tDMAPage: tDMAPage,
		bufSlots: bufSlots,
		opened:   eng.Now(),
	}
	c.pending.slab, c.decodeQueue.slab = slab, slab
	return c
}

// submit enqueues a channel job.
//
//riflint:hotpath
func (c *channelStation) submit(job xferJob) {
	c.pending.push(job)
	if c.pending.len() > c.pendHigh {
		c.pendHigh = c.pending.len()
	}
	c.tryStartXfer()
}

func (c *channelStation) tryStartXfer() {
	if c.busy || c.pending.len() == 0 {
		return
	}
	if c.pending.peek().kind == xferRead && c.bufInUse >= c.bufSlots {
		// Channel idle but the ECC buffer is full: ECCWAIT begins.
		if !c.inECCWait {
			c.inECCWait = true
			c.eccWaitSince = c.eng.Now()
		}
		return
	}
	job := c.pending.pop()
	if c.inECCWait {
		c.eccWait += c.eng.Now() - c.eccWaitSince
		c.inECCWait = false
	}
	c.busy = true
	if job.kind == xferRead {
		c.bufInUse++
		if c.bufInUse > c.bufHigh {
			c.bufHigh = c.bufInUse
		}
	}
	c.xfer = job
	c.xferStart = c.eng.Now()
	c.eng.After(sim.Time(job.pages)*c.tDMAPage, c)
}

// Fire completes the running transfer: a write's continuation fires
// now; a read lands in the ECC buffer and queues for decode.
//
//riflint:hotpath
func (c *channelStation) Fire() {
	job := c.xfer
	c.xfer = xferJob{}
	c.busy = false
	dur := sim.Time(job.pages) * c.tDMAPage
	if c.record != nil {
		c.record(c.name, job.label, c.xferStart, c.eng.Now())
	}
	switch job.kind {
	case xferWrite:
		c.write += dur
		if job.onDecoded != nil {
			job.onDecoded.Fire()
		}
	case xferRead:
		if c.corrupt != nil && job.resends < maxXferResends && c.corrupt() {
			// The transfer arrived damaged: the wasted movement is
			// UNCOR time, the buffer slot is released, and the job
			// re-queues at the head (the page still sits intact in
			// the die's page buffer).
			c.corruptions++
			c.uncor += dur
			c.bufInUse--
			job.resends++
			c.pending.pushFront(job)
			break
		}
		// Split the occupancy between useful and doomed pages.
		u := dur * sim.Time(job.uncorPages) / sim.Time(job.pages)
		c.uncor += u
		c.cor += dur - u
		c.decodeQueue.push(job)
		c.tryStartDecode()
	}
	c.tryStartXfer()
}

func (c *channelStation) tryStartDecode() {
	if c.engineBusy || c.decodeQueue.len() == 0 {
		return
	}
	job := c.decodeQueue.pop()
	c.engineBusy = true
	c.decoding = job
	c.decodeStart = c.eng.Now()
	c.eng.After(job.engineTime, (*eccEngine)(c))
}

// eccEngine is a channel station seen as its ECC engine: the handler
// that fires at the end of the station's running decode. Converting a
// *channelStation to an *eccEngine makes no new object.
type eccEngine channelStation

// Fire completes the running decode: free its buffer slot, fire the
// job's continuation, then start whatever the freed engine and buffer
// slot allow.
//
//riflint:hotpath
func (e *eccEngine) Fire() {
	c := (*channelStation)(e)
	job := c.decoding
	c.decoding = xferJob{}
	c.engineBusy = false
	if c.record != nil && job.engineTime > 0 {
		if c.eccName == "" {
			c.eccName = "ecc-" + c.name
		}
		c.record(c.eccName, job.label, c.decodeStart, c.eng.Now())
	}
	c.bufInUse--
	if job.onDecoded != nil {
		job.onDecoded.Fire()
	}
	c.tryStartDecode()
	c.tryStartXfer() // a freed buffer slot may unblock the channel
}

// usage snapshots the accounting over [opened, now].
func (c *channelStation) usage() ChannelUsage {
	wait := c.eccWait
	if c.inECCWait {
		wait += c.eng.Now() - c.eccWaitSince
	}
	return ChannelUsage{
		Cor:     c.cor,
		Uncor:   c.uncor,
		Write:   c.write,
		ECCWait: wait,
		Total:   c.eng.Now() - c.opened,
	}
}

// quiesced reports whether no work is in flight or queued.
func (c *channelStation) quiesced() bool {
	return !c.busy && !c.engineBusy && c.pending.len() == 0 && c.decodeQueue.len() == 0 && c.bufInUse == 0
}
