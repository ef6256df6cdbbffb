package ssd

import (
	"testing"

	"repro/internal/nvme"
	"repro/internal/obs"
)

func newNVMeDevice(t *testing.T, scheme Scheme, pe int) (*NVMeBackend, *nvme.Controller) {
	t.Helper()
	s, err := New(smallConfig(scheme, pe), smallWorkload(t, "Ali124", 1))
	if err != nil {
		t.Fatal(err)
	}
	b := NewNVMeBackend(s)
	return b, nvme.NewController(b, nvme.RoundRobin)
}

func TestNVMeReadWriteRoundTrip(t *testing.T) {
	b, c := newNVMeDevice(t, RiF, 1000)
	sq := c.CreateQueuePair(64, 1)

	// A 64-KiB write at LBA 0 (16 x 4-KiB blocks), then reads.
	if err := c.Submit(sq, nvme.Command{Opcode: nvme.OpWrite, CID: 1, SLBA: 0, NLB: 15}); err != nil {
		t.Fatal(err)
	}
	for cid := uint16(2); cid < 10; cid++ {
		if err := c.Submit(sq, nvme.Command{
			Opcode: nvme.OpRead, CID: cid, SLBA: int64(cid) * 64, NLB: 31,
		}); err != nil {
			t.Fatal(err)
		}
	}
	c.Doorbell()
	m, err := b.Drain()
	if err != nil {
		t.Fatal(err)
	}
	cqes, err := c.Reap(sq, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(cqes) != 9 {
		t.Fatalf("reaped %d completions, want 9", len(cqes))
	}
	for _, cqe := range cqes {
		if cqe.Status != nvme.StatusSuccess {
			t.Fatalf("command %d failed: %+v", cqe.CID, cqe)
		}
	}
	if m.RequestsCompleted != 9 || m.BytesWritten == 0 || m.BytesRead == 0 {
		t.Fatalf("metrics: %+v", m)
	}
}

// TestNVMeDrainRecordsReadLatencies checks reads issued through the
// NVMe front end reach Metrics.ReadLatencies and the
// ssd_read_latency_us histogram, one observation per read command.
func TestNVMeDrainRecordsReadLatencies(t *testing.T) {
	cfg := smallConfig(RiF, 1000)
	cfg.Obs = obs.NewRegistry()
	s, err := New(cfg, smallWorkload(t, "Ali124", 1))
	if err != nil {
		t.Fatal(err)
	}
	b := NewNVMeBackend(s)
	c := nvme.NewController(b, nvme.RoundRobin)
	sq := c.CreateQueuePair(64, 1)
	const reads = 12
	if err := c.Submit(sq, nvme.Command{Opcode: nvme.OpWrite, CID: 0, SLBA: 0, NLB: 15}); err != nil {
		t.Fatal(err)
	}
	for cid := uint16(1); cid <= reads; cid++ {
		if err := c.Submit(sq, nvme.Command{
			Opcode: nvme.OpRead, CID: cid, SLBA: int64(cid) * 64, NLB: 7,
		}); err != nil {
			t.Fatal(err)
		}
	}
	c.Doorbell()
	m, err := b.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.ReadLatencies.N(); got != reads {
		t.Fatalf("ReadLatencies n = %d, want %d read commands", got, reads)
	}
	if m.ReadLatencies.Min() <= 0 {
		t.Fatalf("read latency min %v us", m.ReadLatencies.Min())
	}
	if got := cfg.Obs.Snapshot().Histograms["ssd_read_latency_us"].Count; got != reads {
		t.Fatalf("read latency histogram n = %d, want %d", got, reads)
	}
}

func TestNVMeLBAToPageConversion(t *testing.T) {
	b, c := newNVMeDevice(t, Zero, 0)
	sq := c.CreateQueuePair(8, 1)
	// A single 4-KiB read within one 16-KiB page.
	if err := c.Submit(sq, nvme.Command{Opcode: nvme.OpRead, CID: 1, SLBA: 1, NLB: 0}); err != nil {
		t.Fatal(err)
	}
	c.Doorbell()
	m, err := b.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if m.PageReads != 1 {
		t.Fatalf("4-KiB read touched %d pages, want 1", m.PageReads)
	}
	if m.BytesRead != 16*1024 {
		t.Fatalf("read bytes %d, want one page", m.BytesRead)
	}
}

func TestNVMeFlushCompletes(t *testing.T) {
	_, c := newNVMeDevice(t, Zero, 0)
	sq := c.CreateQueuePair(8, 1)
	if err := c.Submit(sq, nvme.Command{Opcode: nvme.OpFlush, CID: 1}); err != nil {
		t.Fatal(err)
	}
	c.Doorbell()
	cqes, _ := c.Reap(sq, 10)
	if len(cqes) != 1 || cqes[0].Status != nvme.StatusSuccess {
		t.Fatalf("flush: %+v", cqes)
	}
}

func TestNVMeMultiQueueSharesDevice(t *testing.T) {
	b, c := newNVMeDevice(t, One, 2000)
	q0 := c.CreateQueuePair(32, 1)
	q1 := c.CreateQueuePair(32, 1)
	for cid := uint16(0); cid < 8; cid++ {
		if err := c.Submit(q0, nvme.Command{Opcode: nvme.OpRead, CID: cid, SLBA: int64(cid) * 128, NLB: 15}); err != nil {
			t.Fatal(err)
		}
		if err := c.Submit(q1, nvme.Command{Opcode: nvme.OpWrite, CID: cid, SLBA: 100000 + int64(cid)*16, NLB: 15}); err != nil {
			t.Fatal(err)
		}
	}
	c.Doorbell()
	if _, err := b.Drain(); err != nil {
		t.Fatal(err)
	}
	c0, _ := c.Reap(q0, 100)
	c1, _ := c.Reap(q1, 100)
	if len(c0) != 8 || len(c1) != 8 {
		t.Fatalf("completions: %d/%d", len(c0), len(c1))
	}
}
