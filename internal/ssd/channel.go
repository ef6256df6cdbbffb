package ssd

import (
	"repro/internal/sim"
)

// xferKind distinguishes channel jobs.
type xferKind int

const (
	xferRead  xferKind = iota // die -> controller, lands in the ECC buffer
	xferWrite                 // controller -> die, no ECC involvement
)

// xferJob is one channel occupancy: a die-command's worth of pages.
// Callers hand submit a job by value; the station copies it into a
// recycled record, so submitting allocates only while the channel's
// backlog sets a new high-water mark.
type xferJob struct {
	kind  xferKind
	pages int
	// uncorPages of the read's pages will fail the subsequent decode
	// (their transfer time is accounted UNCOR); auxiliary transfers
	// such as sentinel reads set uncorPages = pages.
	uncorPages int
	// engineTime is the ECC engine occupancy once transferred (decode
	// and/or controller-side RP prediction time).
	engineTime sim.Time
	// onDecoded runs when the ECC engine finishes the job (reads) or
	// when the transfer finishes (writes).
	onDecoded func()
	// label tags the job for timeline rendering.
	label string
	// resends counts injected-corruption re-transfers of this job.
	resends int
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

	pending     ring[*xferJob] // waiting for channel (+ buffer for reads)
	decodeQueue ring[*xferJob] // transferred, waiting for the ECC engine
	free        []*xferJob

	// One transfer and one decode run at a time, so each keeps its job
	// and start instant here, and one finish handler per stage — bound
	// once in newChannelStation — serves every job.
	xfer         *xferJob
	xferStart    sim.Time
	onXferDone   func()
	decoding     *xferJob
	decodeStart  sim.Time
	onDecodeDone func()
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

func newChannelStation(eng *sim.Engine, tDMAPage sim.Time, bufSlots int) *channelStation {
	c := &channelStation{
		eng:      eng,
		tDMAPage: tDMAPage,
		bufSlots: bufSlots,
		opened:   eng.Now(),
	}
	c.onXferDone = c.xferDone
	c.onDecodeDone = c.decodeDone
	return c
}

// submit enqueues a channel job.
//
//riflint:hotpath
func (c *channelStation) submit(job xferJob) {
	var rec *xferJob
	if n := len(c.free); n > 0 {
		rec = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		//riflint:allow alloc -- free-list refill: one job per backlog high-water slot, reused after
		rec = &xferJob{}
	}
	*rec = job
	c.pending.push(rec)
	if c.pending.len() > c.pendHigh {
		c.pendHigh = c.pending.len()
	}
	c.tryStartXfer()
}

// recycle returns a finished job to the free list.
func (c *channelStation) recycle(job *xferJob) {
	*job = xferJob{}
	//riflint:allow alloc -- within the capacity submit vacated
	c.free = append(c.free, job)
}

func (c *channelStation) tryStartXfer() {
	if c.busy || c.pending.len() == 0 {
		return
	}
	job := c.pending.peek()
	if job.kind == xferRead && c.bufInUse >= c.bufSlots {
		// Channel idle but the ECC buffer is full: ECCWAIT begins.
		if !c.inECCWait {
			c.inECCWait = true
			c.eccWaitSince = c.eng.Now()
		}
		return
	}
	c.pending.pop()
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
	c.eng.After(sim.Time(job.pages)*c.tDMAPage, c.onXferDone)
}

// xferDone completes the running transfer: a write's continuation
// runs now; a read lands in the ECC buffer and queues for decode.
//
//riflint:hotpath
func (c *channelStation) xferDone() {
	job := c.xfer
	c.xfer = nil
	c.busy = false
	dur := sim.Time(job.pages) * c.tDMAPage
	if c.record != nil {
		c.record(c.name, job.label, c.xferStart, c.eng.Now())
	}
	switch job.kind {
	case xferWrite:
		c.write += dur
		done := job.onDecoded
		c.recycle(job)
		if done != nil {
			done()
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
	c.eng.After(job.engineTime, c.onDecodeDone)
}

// decodeDone completes the running decode: free its buffer slot, run
// the job's continuation, then start whatever the freed engine and
// buffer slot allow.
//
//riflint:hotpath
func (c *channelStation) decodeDone() {
	job := c.decoding
	c.decoding = nil
	c.engineBusy = false
	if c.record != nil && job.engineTime > 0 {
		if c.eccName == "" {
			c.eccName = "ecc-" + c.name
		}
		c.record(c.eccName, job.label, c.decodeStart, c.eng.Now())
	}
	c.bufInUse--
	done := job.onDecoded
	c.recycle(job)
	if done != nil {
		done()
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
