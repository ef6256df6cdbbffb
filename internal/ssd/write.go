package ssd

import (
	"repro/internal/sim"
)

// writeCommand executes one multi-plane program: host link, then the
// write data crosses the channel to the die, then the die programs
// all planes in one tPROG. Garbage collection triggered by the
// allocation is charged to the die (copyback relocation plus erase)
// before the program starts.
//
// With a write cache, the host-visible write completes once the data
// is buffered in controller DRAM; the channel transfer and program
// run as a background flush that releases the buffer when durable.
func (s *SSD) writeCommand(c *dieCmd) {
	var gcTime sim.Time
	for i := 0; i < c.cmd.n; i++ {
		_, work, err := s.ftl.Write(c.cmd.lpn+int64(i), s.eng.Now(), s.cfg.GCFreeBlockLow)
		if err != nil {
			// An unplaceable write (out of space, every die down) is
			// dropped: the first error is carried in the run result and
			// the command completes with a write-error status instead
			// of panicking mid-simulation.
			s.m.Faults.DroppedWrites++
			s.failRun(err)
			c.complete(cmdResult{writeErr: true})
			return
		}
		if work != nil {
			gcTime += s.gcTime(work)
			victim := work.Plane
			victim.Block = work.VictimBlock
			b := &s.blocks[s.cfg.Geometry.BlockID(victim)]
			b.erases++
			// Erasing also clears the accumulated read disturb.
			b.reads = 0
		}
	}
	c.gcTime = gcTime

	// Resolve the target die after the FTL writes: die failover may
	// have re-homed the pages away from a dead die.
	c.die, c.ch, _ = s.dieOf(c.cmd)

	if !s.cache.enabled() {
		// Write-through: the host waits for the program.
		s.hostTransfer(c.cmd.n, c.then(stageWriteHosted))
		return
	}
	s.cache.acquire(c.cmd.n, c.then(stageCacheGranted))
}

// writeHosted moves write-through data across the channel.
func (c *dieCmd) writeHosted() {
	c.ch.submit(xferJob{kind: xferWrite, pages: c.cmd.n, label: "W", onDecoded: c.then(stageWriteMoved)})
}

// writeMoved programs write-through data, paying the GC debt first.
func (c *dieCmd) writeMoved() {
	c.die.Program(c.gcTime+c.s.cfg.Timing.TProg, c.then(stageProgrammed))
}

// cacheGranted moves cached write data across the host link.
func (c *dieCmd) cacheGranted() {
	c.s.hostTransfer(c.cmd.n, c.then(stageBuffered))
}

// buffered completes a cached write — the host sees it at buffer time
// — and hands its pages to the die's background flusher.
func (c *dieCmd) buffered() {
	s, cmd, gcTime := c.s, c.cmd, c.gcTime
	// The completion may start further requests that remap these
	// pages, so the flusher looks them up after it.
	c.complete(cmdResult{})
	addr, _, _ := s.ftl.Lookup(cmd.lpn)
	f := s.flushers[s.cfg.Geometry.DieID(addr)]
	for i := 0; i < cmd.n; i++ {
		a, _, _ := s.ftl.Lookup(cmd.lpn + int64(i))
		gc := sim.Time(0)
		if i == 0 {
			gc = gcTime // the batch that carries page 0 pays the GC debt
		}
		f.enqueue(flushPage{plane: a.Plane, gcTime: gc})
	}
	f.kick()
}

// gcTime charges a garbage collection: valid pages move by in-die
// copyback (read + program per plane-parallel batch, no channel
// traffic) and the victim block is erased.
func (s *SSD) gcTime(work *GCWork) sim.Time {
	batches := (work.PagesRelocated + s.cfg.Geometry.PlanesPerDie - 1) / s.cfg.Geometry.PlanesPerDie
	t := sim.Time(batches) * (s.cfg.Timing.TR + s.cfg.Timing.TProg)
	t += sim.Time(work.Erases) * s.cfg.Timing.TErase
	return t
}
