package ssd

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// The request path runs on two pooled records instead of a chain of
// per-stage closures: a hostReq per in-flight host request and a
// dieCmd per in-flight die command. Each record is taken from the
// device's free list when its request or command starts and returned
// the moment it reports completion, so in steady state the path
// allocates nothing; DESIGN.md §"Request lifecycle" sets out the
// ownership and ordering rules.

// hostReq is one in-flight host request: the commands it split into
// report to it, and the last one completes it through the host port.
type hostReq struct {
	s       *SSD
	req     trace.Request
	arrival sim.Time
	// src answers the cold-data ages of the request's pages; tag is
	// reported back in its Completion.
	src         Workload
	tag         int
	outstanding int
	agg         cmdResult
}

// dieCommand is one multi-plane operation: n consecutive logical
// pages, starting at lpn, on distinct planes of one die.
type dieCommand struct {
	lpn int64
	n   int
}

// cmdStage names the step a die command fires next.
type cmdStage uint8

const (
	stageSensed         cmdStage = iota // first sense done
	stageDecoded                        // first transfer decoded
	stageSentinelSensed                 // Sentinel's extra read sensed
	stageReread                         // ready for a retry round's re-sense
	stageResensed                       // retry re-sense done
	stageRedecoded                      // retry transfer decoded
	stageHosted                         // read data crossed the host link
	stageCacheGranted                   // write-cache slots granted
	stageBuffered                       // cached write data crossed the host link
	stageProbed                         // a dead die's probe sense timed out
)

// dieCmd is one in-flight die command and the scratch its read or
// write flow needs. A command waits on one thing at a time — a die
// operation, a channel job, the host link, a write-cache grant — so
// the command itself is the sim.Handler every wait is handed: the
// stage field names the step it fires.
type dieCmd struct {
	s      *SSD
	parent *hostReq
	cmd    dieCommand
	die    *dieStation
	ch     *channelStation

	// lbl and lblRetry tag the command's occupancies on the timeline;
	// empty unless spans are recorded.
	lbl, lblRetry string

	// Scratch with capacity PlanesPerDie, kept when the record is
	// recycled: the resolved pages, the decoder iteration counts of
	// the transfer being decoded, and the indices into pages of the
	// pages still failing.
	pages  []pageView
	iters  []int
	failed []int

	// uncor counts the pages of the first transfer that will fail
	// decode; engineTime is RPSSD's precomputed ECC occupancy.
	uncor      int
	engineTime sim.Time
	// round is the controller-driven retry round in progress.
	round int
	// unc is the uncorrectable page count reported at completion.
	unc int
	// gcTime is the garbage-collection debt a write carries.
	gcTime sim.Time
	stage  cmdStage
	// anyRetry reports that RiF flagged a page for an in-die re-read.
	anyRetry bool
}

// recordSlab is how many host-request or die-command records one slab
// allocation carves. A cell's first few hundred commands make fresh
// records at a deep queue, and carving them cuts that warm-up's
// allocations by this factor; a short run wastes at most one slab.
const recordSlab = 16

// carve takes the next n elements of *slab, refilling it with room for
// recordSlab such runs when it runs short. The result's capacity is n,
// so it never reaches into its neighbours.
func carve[T any](slab *[]T, n int) []T {
	if len(*slab) < n {
		//riflint:allow alloc -- slab refill: one allocation per recordSlab records, which are recycled through the free lists after
		*slab = make([]T, recordSlab*n)
	}
	v := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return v
}

// newReq takes a host-request record from the free list.
func (s *SSD) newReq() *hostReq {
	if n := len(s.reqFree); n > 0 {
		r := s.reqFree[n-1]
		s.reqFree = s.reqFree[:n-1]
		return r
	}
	return &carve(&s.reqSlab, 1)[0]
}

// newCmd takes a die-command record from the free list, reset for cmd.
func (s *SSD) newCmd(parent *hostReq, cmd dieCommand) *dieCmd {
	var c *dieCmd
	if n := len(s.cmdFree); n > 0 {
		c = s.cmdFree[n-1]
		s.cmdFree = s.cmdFree[:n-1]
	} else {
		p := s.cfg.Geometry.PlanesPerDie
		c = &carve(&s.cmdSlab, 1)[0]
		c.pages = carve(&s.pageSlab, p)
		c.iters = carve(&s.iterSlab, p)
		c.failed = carve(&s.failSlab, p)
	}
	*c = dieCmd{
		s:      s,
		parent: parent,
		cmd:    cmd,
		pages:  c.pages[:0],
		iters:  c.iters[:0],
		failed: c.failed[:0],
	}
	return c
}

// commandAt reports the die command that starts at lpn: the rest of
// lpn's plane group, at most remaining pages.
func (s *SSD) commandAt(lpn int64, remaining int) dieCommand {
	p := int64(s.cfg.Geometry.PlanesPerDie)
	n := int((lpn/p+1)*p - lpn)
	if n > remaining {
		n = remaining
	}
	return dieCommand{lpn: lpn, n: n}
}

// cmdDone folds one command's result into the request and completes
// the request when it was the last one outstanding.
func (r *hostReq) cmdDone(res cmdResult) {
	r.agg.uncPages += res.uncPages
	r.outstanding--
	if r.outstanding > 0 {
		return
	}
	s, req, arrival, tag, agg := r.s, r.req, r.arrival, r.tag, r.agg
	*r = hostReq{}
	s.reqFree = append(s.reqFree, r)
	c := s.recordCompletion(req, arrival, tag, agg)
	if s.onComplete != nil {
		s.onComplete(c)
	}
}

// then arms the command to fire stage st and returns it.
func (c *dieCmd) then(st cmdStage) sim.Handler {
	c.stage = st
	return c
}

// Fire runs the step the command was waiting on.
func (c *dieCmd) Fire() {
	switch c.stage {
	case stageSensed:
		c.sensed()
	case stageDecoded:
		c.decoded()
	case stageSentinelSensed:
		c.sentinelSensed()
	case stageReread:
		c.reread()
	case stageResensed:
		c.resensed()
	case stageRedecoded:
		c.redecoded()
	case stageHosted:
		c.complete(cmdResult{uncPages: c.unc})
	case stageCacheGranted:
		c.cacheGranted()
	case stageBuffered:
		c.buffered()
	case stageProbed:
		c.complete(cmdResult{uncPages: c.cmd.n})
	}
}

// complete recycles the command and reports its result to the
// request.
func (c *dieCmd) complete(res cmdResult) {
	s, parent := c.s, c.parent
	c.parent, c.die, c.ch = nil, nil, nil
	s.cmdFree = append(s.cmdFree, c)
	parent.cmdDone(res)
}
