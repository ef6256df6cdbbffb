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
// report to it, and the last one completes it.
type hostReq struct {
	s       *SSD
	req     trace.Request
	arrival sim.Time
	chain   bool
	// done, when non-nil, receives the completion instead of the
	// built-in host's completeRequest (RunQueues and the NVMe front
	// end).
	done        func(cmdResult)
	outstanding int
	agg         cmdResult
}

// dieCommand is one multi-plane operation: n consecutive logical
// pages, starting at lpn, on distinct planes of one die.
type dieCommand struct {
	lpn int64
	n   int
}

// cmdStage names the continuation a die command is waiting on.
type cmdStage uint8

const (
	stageProbed         cmdStage = iota // dead die's probe sense timed out
	stageSensed                         // first sense done
	stageDecoded                        // first transfer decoded
	stageSentinelSensed                 // Sentinel's extra read sensed
	stageReread                         // ready for a retry round's re-sense
	stageResensed                       // retry re-sense done
	stageRedecoded                      // retry transfer decoded
	stageHosted                         // read data crossed the host link
	stageWriteHosted                    // write-through data crossed the host link
	stageWriteMoved                     // write-through data crossed the channel
	stageProgrammed                     // write-through program done
	stageCacheGranted                   // write-cache slots granted
	stageBuffered                       // cached write data crossed the host link
)

// dieCmd is one in-flight die command and the scratch its read or
// write flow needs. A command waits on one thing at a time — a die
// operation, a channel job, the host link, a write-cache grant — so
// one handler, resumeFn, bound once when the record is first
// allocated, serves every wait: the stage field names the step it
// resumes.
type dieCmd struct {
	s        *SSD
	parent   *hostReq
	cmd      dieCommand
	die      *dieStation
	ch       *channelStation
	stage    cmdStage
	resumeFn func()

	// lbl and lblRetry tag the command's occupancies on the timeline;
	// empty unless spans are recorded.
	lbl, lblRetry string

	// Scratch with capacity PlanesPerDie, kept when the record is
	// recycled: the resolved pages, RiF's per-page predictions, the
	// RBERs of the transfer being decoded, and the pages still failing.
	pages    []pageView
	predFail []bool
	rbers    []float64
	failed   []pageView

	// uncor counts the pages of the first transfer that will fail
	// decode; engineTime is RPSSD's precomputed ECC occupancy.
	uncor      int
	engineTime sim.Time
	// anyRetry reports that RiF flagged a page for an in-die re-read.
	anyRetry bool
	// round is the controller-driven retry round in progress, sense
	// its re-sense duration.
	round int
	sense sim.Time
	// unc is the uncorrectable page count reported at completion.
	unc int
	// gcTime is the garbage-collection debt a write carries.
	gcTime sim.Time
}

// newReq takes a host-request record from the free list.
func (s *SSD) newReq() *hostReq {
	if n := len(s.reqFree); n > 0 {
		r := s.reqFree[n-1]
		s.reqFree = s.reqFree[:n-1]
		return r
	}
	return &hostReq{}
}

// newCmd takes a die-command record from the free list, reset for cmd.
func (s *SSD) newCmd(parent *hostReq, cmd dieCommand) *dieCmd {
	var c *dieCmd
	if n := len(s.cmdFree); n > 0 {
		c = s.cmdFree[n-1]
		s.cmdFree = s.cmdFree[:n-1]
	} else {
		p := s.cfg.Geometry.PlanesPerDie
		c = &dieCmd{
			pages:    make([]pageView, 0, p),
			predFail: make([]bool, 0, p),
			rbers:    make([]float64, 0, p),
			failed:   make([]pageView, 0, p),
		}
		c.resumeFn = c.resume
	}
	*c = dieCmd{
		s:        s,
		parent:   parent,
		cmd:      cmd,
		resumeFn: c.resumeFn,
		pages:    c.pages[:0],
		predFail: c.predFail[:0],
		rbers:    c.rbers[:0],
		failed:   c.failed[:0],
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

// runRequest splits a request into die commands along the striping
// and issues them. The completion goes to done when it is non-nil,
// otherwise to completeRequest with the arrival and chain flag.
func (s *SSD) runRequest(req trace.Request, arrival sim.Time, chain bool, done func(cmdResult)) {
	r := s.newReq()
	*r = hostReq{s: s, req: req, arrival: arrival, chain: chain, done: done}
	if req.Pages > 0 {
		p := int64(s.cfg.Geometry.PlanesPerDie)
		r.outstanding = int((req.LPN+int64(req.Pages)-1)/p - req.LPN/p + 1)
	}
	// A command may complete synchronously (a cached write), and the
	// last one recycles r: the loop reads only its own locals.
	lpn, remaining := req.LPN, req.Pages
	for remaining > 0 {
		cmd := s.commandAt(lpn, remaining)
		lpn += int64(cmd.n)
		remaining -= cmd.n
		c := s.newCmd(r, cmd)
		if req.Op == trace.Read {
			s.readCommand(c)
		} else {
			s.writeCommand(c)
		}
	}
}

// cmdDone folds one command's result into the request and completes
// the request when it was the last one outstanding.
func (r *hostReq) cmdDone(res cmdResult) {
	r.agg.uncPages += res.uncPages
	r.agg.writeErr = r.agg.writeErr || res.writeErr
	r.outstanding--
	if r.outstanding > 0 {
		return
	}
	s, req, arrival, chain, done, agg := r.s, r.req, r.arrival, r.chain, r.done, r.agg
	*r = hostReq{}
	s.reqFree = append(s.reqFree, r)
	if done != nil {
		done(agg)
		return
	}
	s.completeRequest(req, arrival, chain, agg)
}

// then arms the command to resume at stage st and returns its handler.
func (c *dieCmd) then(st cmdStage) func() {
	c.stage = st
	return c.resumeFn
}

// resume runs the step the command was waiting on.
func (c *dieCmd) resume() {
	switch c.stage {
	case stageProbed:
		c.complete(cmdResult{uncPages: c.cmd.n})
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
	case stageWriteHosted:
		c.writeHosted()
	case stageWriteMoved:
		c.writeMoved()
	case stageProgrammed:
		c.complete(cmdResult{})
	case stageCacheGranted:
		c.cacheGranted()
	case stageBuffered:
		c.buffered()
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
