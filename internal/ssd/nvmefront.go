package ssd

import (
	"repro/internal/nvme"
	"repro/internal/trace"
)

// NVMeBackend adapts a simulated SSD to the nvme.Backend interface,
// so the device can be driven through real submission/completion
// rings on its host port instead of the built-in closed-loop host. The
// caller submits commands, rings the doorbell, then runs the
// simulation engine to let the flash back end make progress, and
// finally reaps CQEs.
//
// LBA geometry: one NVMe logical block is LBABytes (default 4 KiB);
// the backend converts LBA ranges to 16-KiB logical pages.
type NVMeBackend struct {
	SSD *SSD
	// LBABytes is the logical block size (default 4096).
	LBABytes int

	// pending holds each in-flight command's completion callback at
	// its port tag; free lists the vacant tags.
	pending []func(nvme.Status)
	free    []int
}

// NewNVMeBackend wraps an SSD and binds the backend as the device's
// completion handler.
func NewNVMeBackend(s *SSD) *NVMeBackend {
	b := &NVMeBackend{SSD: s, LBABytes: 4096}
	s.OnComplete(b.complete)
	return b
}

// Execute implements nvme.Backend: it converts the command to a page
// request and runs it through the normal read/write path. Flush
// completes when the write cache has drained below a page.
func (b *NVMeBackend) Execute(_ uint16, cmd nvme.Command, done func(nvme.Status)) {
	s := b.SSD
	lbaBytes := b.LBABytes
	if lbaBytes <= 0 {
		lbaBytes = 4096
	}
	switch cmd.Opcode {
	case nvme.OpFlush:
		// The model's cache drains continuously; treat flush as a
		// barrier that completes once current flush work finishes
		// (approximated as immediate when the cache is empty).
		done(nvme.StatusSuccess)
		return
	case nvme.OpRead, nvme.OpWrite:
	default:
		done(nvme.StatusInvalidOp)
		return
	}

	startByte := cmd.SLBA * int64(lbaBytes)
	endByte := (cmd.SLBA + int64(cmd.NLB) + 1) * int64(lbaBytes) // NLB is zero-based
	pageBytes := int64(s.cfg.Geometry.PageBytes)
	firstPage := startByte / pageBytes
	lastPage := (endByte - 1) / pageBytes

	op := trace.Read
	if cmd.Opcode == nvme.OpWrite {
		op = trace.Write
	}
	req := trace.Request{
		Op:    op,
		LPN:   firstPage,
		Pages: int(lastPage-firstPage) + 1,
	}
	tag := len(b.pending)
	if n := len(b.free); n > 0 {
		tag = b.free[n-1]
		b.free = b.free[:n-1]
		b.pending[tag] = done
	} else {
		b.pending = append(b.pending, done)
	}
	s.Submit(req, s.eng.Now(), s.workload, tag)
}

// complete is the backend's completion handler. Degradation outcomes
// surface as real NVMe statuses: a read with retry-exhausted pages is
// a media error (SCT 2h / SC 81h), a write the FTL could not place is
// an internal error.
func (b *NVMeBackend) complete(c Completion) {
	st := nvme.StatusSuccess
	if c.MediaError {
		st = nvme.StatusMediaError
	}
	if c.WriteError {
		st = nvme.StatusInternal
	}
	done := b.pending[c.Tag]
	b.pending[c.Tag] = nil
	b.free = append(b.free, c.Tag)
	done(st)
}

// Drain runs the simulation engine until all in-flight work finishes
// and returns the device metrics. Call after the final Doorbell.
func (b *NVMeBackend) Drain() (*Metrics, error) { return b.SSD.Drain() }
