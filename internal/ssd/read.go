package ssd

import (
	"fmt"

	"repro/internal/nand"
	"repro/internal/sim"
)

// readCommand executes one multi-plane read under the configured
// scheme; the command completes once the data has been delivered to
// the host. Pages that exhaust the retry ladder are reported in the
// result as uncorrectable instead of wedging or panicking.
func (s *SSD) readCommand(c *dieCmd) {
	die, ch, dieIdx := s.dieOf(c.cmd)
	c.die, c.ch = die, ch
	if s.inj.DieDown(dieIdx) {
		// The die dropped out: the controller's probe sense times out
		// and every page of the command is reported uncorrectable.
		s.noteDeadDie(dieIdx)
		n := int64(c.cmd.n)
		s.m.PageReads += n
		s.m.UnrecoveredPages += n
		s.m.Faults.DieDropoutReads += n
		s.eng.After(s.cfg.Timing.TR, c.then(stageProbed))
		return
	}
	s.resolvePages(c)
	s.m.PageReads += int64(len(c.pages))

	if s.cfg.Trace != nil {
		c.lbl = cmdLabel(s.nextCmd)
		c.lblRetry = c.lbl + "'"
		s.nextCmd++
	}

	switch s.cfg.Scheme {
	case Zero:
		// The no-retry hypothetical: every page decodes in one
		// iteration.
		c.senseFirst(s.cfg.Timing.TR)
	case One, Sentinel, SWR, SWRPlus:
		c.planOffChip()
	case RPOnly:
		c.planRPController()
	case RiF:
		c.planRiF()
	default:
		// Unreachable: Config.Validate rejects unknown schemes.
		// Complete the command anyway rather than wedging the drain.
		s.failRun(fmt.Errorf("ssd: unknown scheme %d", int(s.cfg.Scheme)))
		c.finish(0)
	}
}

// senseFirst occupies the die with the command's first read (dur of
// array time plus any injected re-issues).
func (c *dieCmd) senseFirst(dur sim.Time) {
	c.die.Read(c.senseTime(dur, false), c.lbl, c.then(stageSensed))
}

// planOffChip is the first read of SSDone, SENC, SWR and SWR+: the
// sensed page must cross the channel and fail the off-chip decode
// before a retry is issued, so the pages that will fail are known at
// issue.
//
//riflint:hotpath
func (c *dieCmd) planOffChip() {
	s := c.s
	n := len(c.pages)
	c.iters = c.iters[:n]
	c.failed = c.failed[:n]
	k := 0
	for i := range c.pages {
		var fails bool
		c.iters[i], fails = s.firstDecode(&c.pages[i])
		if fails {
			c.failed[k] = i
			k++
		}
	}
	c.failed = c.failed[:k]
	c.uncor = k
	c.senseFirst(s.cfg.Timing.TR)
}

// planRPController is RPSSD: the RP module sits next to the
// controller's ECC engine. Doomed decodes are terminated after tPRED,
// but uncorrectable pages still consume channel bandwidth.
//
//riflint:hotpath
func (c *dieCmd) planRPController() {
	s := c.s
	var engineTime sim.Time
	uncor := 0
	c.failed = c.failed[:len(c.pages)]
	k := 0
	for i := range c.pages {
		p := &c.pages[i]
		predFail := s.predictFail(p)
		fails := p.fails
		switch {
		case predFail:
			// Decode cut short at the prediction latency. (A false
			// positive also lands here: the page is retried anyway.)
			engineTime += s.cfg.Timing.TPred
		default:
			// Predicted correctable: the decode runs to completion —
			// for a false negative that is the full failing decode.
			engineTime += s.dec.DecodeLatency(s.firstIters(p))
			if s.timedOut(fails) {
				fails = true
			}
		}
		if fails {
			uncor++
		}
		if fails || predFail {
			c.failed[k] = i
			k++
		}
	}
	c.failed = c.failed[:k]
	c.uncor, c.engineTime = uncor, engineTime
	c.senseFirst(s.cfg.Timing.TR)
}

// planRiF is the full Retry-in-Flash flow: RP predicts on-die right
// after the sense; predicted-uncorrectable pages are re-read inside
// the die at RVS-selected voltages before anything crosses the
// channel. Only false negatives ever ship a doomed page.
//
//riflint:hotpath
func (c *dieCmd) planRiF() {
	s := c.s
	anyRetry := false
	flagged := int64(0)
	for i := range c.pages {
		p := &c.pages[i]
		p.predFail = s.predictFail(p)
		if p.predFail {
			anyRetry = true
			flagged++
			s.noteSense(p.blockID) // the RVS re-read senses the block again
			if p.fails {
				s.m.AvoidedTransfers++
			}
		}
	}
	s.m.RVSRereads += flagged
	c.anyRetry = anyRetry

	dieTime := s.cfg.Timing.TR + s.cfg.Timing.TPred
	if anyRetry {
		// RVS re-reads the flagged planes in parallel: one extra
		// sense. (The initial sense doubles as Swift-Read's probe
		// read: the ones-count is already in the page buffer.)
		dieTime += s.cfg.Timing.TR
	}

	// Footnote-4 extension: RP also checks the re-read pages, and a
	// page whose adjusted-VREF read is still uncorrectable gets one
	// further in-die refinement instead of a doomed transfer.
	if s.cfg.RiFSecondCheck && anyRetry {
		dieTime += s.cfg.Timing.TPred
		secondRetry := false
		for i := range c.pages {
			p := &c.pages[i]
			if !p.predFail || !s.retryFails(p) {
				continue
			}
			s.m.Predictions++
			caught := s.predictRetry(p, s.predictRNG.Float64())
			s.m.Confusion.Record(caught, true)
			if caught {
				// Caught: a second Swift-Read pass refines the VREF
				// estimate further (diminishing returns).
				p.refine()
				s.m.AvoidedTransfers++
				s.m.RVSRereads++
				s.noteSense(p.blockID) // one more in-die sense
				secondRetry = true
			} else {
				s.m.Mispredictions++
			}
		}
		if secondRetry {
			dieTime += s.cfg.Timing.TR
		}
	}
	c.senseFirst(dieTime)
}

// sensed ships the first read across the channel to the ECC engine.
//
//riflint:hotpath
func (c *dieCmd) sensed() {
	s := c.s
	job := xferJob{
		kind:       xferRead,
		pages:      len(c.pages),
		uncorPages: c.uncor,
		label:      c.lbl,
		onDecoded:  c.then(stageDecoded),
	}
	switch s.cfg.Scheme {
	case Zero:
		job.engineTime = sim.Time(len(c.pages)) * s.dec.MinLatency()
	case RPOnly:
		job.engineTime = c.engineTime
	case RiF:
		c.rifSensed(&job)
	default:
		job.engineTime = s.decodeLatency(c.iters)
	}
	c.ch.submit(job)
}

// rifSensed settles RiF's in-die outcome once the die is done: a
// flagged page ships its re-read data, an unflagged one its first
// read; whatever still fails is decoded at full cost and retried by
// the controller.
func (c *dieCmd) rifSensed(job *xferJob) {
	s := c.s
	n := len(c.pages)
	c.iters = c.iters[:n]
	c.failed = c.failed[:n]
	k := 0
	retriedNow := int64(0)
	for i := range c.pages {
		p := &c.pages[i]
		if p.predFail {
			retriedNow++
			var fails bool
			c.iters[i], fails = s.retryDecode(p)
			if fails {
				c.failed[k] = i
				k++
			}
		} else {
			var fails bool
			c.iters[i], fails = s.firstDecode(p)
			if fails {
				// False negative: the doomed page crosses the
				// channel and burns a full failing decode.
				c.failed[k] = i
				k++
				retriedNow++
			}
		}
	}
	c.failed = c.failed[:k]
	s.m.PagesRetried += retriedNow
	if c.anyRetry {
		s.m.RetryRounds++
	}
	job.uncorPages = k
	job.engineTime = s.decodeLatency(c.iters)
}

// decoded ends the first read: done when every page decoded,
// otherwise the failing pages enter the controller-driven retry
// ladder (for RiF, the recovery path of mispredictions).
//
//riflint:hotpath
func (c *dieCmd) decoded() {
	if len(c.failed) == 0 {
		c.finish(0)
		return
	}
	if c.s.cfg.Scheme != RiF { // RiF counted its retried pages at the sense
		c.s.m.PagesRetried += int64(len(c.failed))
	}
	c.round = 1
	c.retry()
}

// retry performs one controller-driven retry round for the failing
// pages. Sentinel may first read its sentinel cells.
func (c *dieCmd) retry() {
	s := c.s
	s.m.RetryRounds++
	if s.cfg.Scheme == Sentinel && s.sentinelRNG.Bernoulli(s.cfg.SentinelExtraReadProb) {
		// Sentinel's extra off-chip read: the sentinel cells are read
		// with the sentinel VREF set and shipped to the controller;
		// the transfer is pure overhead (UNCOR).
		s.m.SentinelExtraReads += int64(len(c.failed))
		c.noteFailedSenses() // the sentinel-cell read senses the array too
		c.die.Read(c.senseTime(s.cfg.Timing.TR, true), c.lbl, c.then(stageSentinelSensed))
		return
	}
	c.reread()
}

// sentinelSensed ships the sentinel cells to the controller's
// dedicated logic (no LDPC engine time).
func (c *dieCmd) sentinelSensed() {
	c.ch.submit(xferJob{
		kind:       xferRead,
		pages:      len(c.failed),
		uncorPages: len(c.failed),
		label:      c.lblRetry,
		onDecoded:  c.then(stageReread),
	})
}

// reread issues the retry round's re-sense: a real array read of
// every still-failing page's block, so it disturbs them further. SWR
// and SWR+ re-sense for 2 tR, every other scheme for one.
func (c *dieCmd) reread() {
	s := c.s
	sense := s.cfg.Timing.TR
	if s.cfg.Scheme == SWR || s.cfg.Scheme == SWRPlus {
		sense = 2 * s.cfg.Timing.TR
	}
	c.noteFailedSenses()
	c.die.Read(c.senseTime(sense, true), c.lblRetry, c.then(stageResensed))
}

// resensed ships the retry round's data for decode, keeping in failed
// only the pages that will fail again.
//
//riflint:hotpath
func (c *dieCmd) resensed() {
	s := c.s
	n := len(c.failed)
	c.iters = c.iters[:n]
	k := 0
	for i := 0; i < n; i++ {
		var fails bool
		c.iters[i], fails = s.retryDecode(&c.pages[c.failed[i]])
		if fails {
			c.failed[k] = c.failed[i]
			k++
		}
	}
	c.failed = c.failed[:k]
	c.ch.submit(xferJob{
		kind:       xferRead,
		pages:      n,
		uncorPages: k,
		engineTime: s.decodeLatency(c.iters),
		label:      c.lblRetry,
		onDecoded:  c.then(stageRedecoded),
	})
}

// redecoded ends a retry round: done when every page decoded; a page
// still failing after MaxRetryRounds is reported uncorrectable and,
// if its block is grown bad, the block is retired.
func (c *dieCmd) redecoded() {
	s := c.s
	if len(c.failed) == 0 {
		c.finish(0)
		return
	}
	if c.round >= s.cfg.MaxRetryRounds {
		s.m.UnrecoveredPages += int64(len(c.failed))
		for _, i := range c.failed {
			s.retireBlock(&c.pages[i])
		}
		c.finish(len(c.failed))
		return
	}
	c.round++
	c.retry()
}

// finish moves the command's data across the host link, reporting unc
// uncorrectable pages when it arrives.
func (c *dieCmd) finish(unc int) {
	c.unc = unc
	c.s.hostTransfer(c.cmd.n, c.then(stageHosted))
}

// predictFail draws RP's prediction for a page from the calibrated
// accuracy model and accounts for it (including the confusion matrix).
// An injected forced misprediction inverts the engine's output on top
// of the accuracy model's own errors.
//
//riflint:hotpath
func (s *SSD) predictFail(p *pageView) bool {
	s.m.Predictions++
	correct := s.predictFirst(p, s.predictRNG.Float64())
	if s.inj.ForceMispredict() {
		s.m.Faults.ForcedMispredictions++
		correct = !correct
	}
	predFail := p.fails
	if !correct {
		s.m.Mispredictions++
		predFail = !p.fails
	}
	s.m.Confusion.Record(predFail, p.fails)
	return predFail
}

// vrefModeForScheme reports the first-read VREF mode (exported for
// tests via a tiny indirection).
func vrefModeForScheme(sc Scheme) nand.VrefMode {
	if sc == SWRPlus {
		return nand.TrackedVref
	}
	return nand.DefaultVref
}

// cmdLabel names the n-th read command like the paper labels them:
// A, B, C, ..., Z, A1, B1, ...
func cmdLabel(n int) string {
	letter := string(rune('A' + n%26))
	if n < 26 {
		return letter
	}
	return fmt.Sprintf("%s%d", letter, n/26)
}
