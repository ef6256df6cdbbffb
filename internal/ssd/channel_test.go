package ssd

import (
	"testing"

	"repro/internal/sim"
)

func TestChannelTransfersFIFO(t *testing.T) {
	eng := sim.NewEngine()
	ch := newChannelStation(eng, 10*sim.Microsecond, 2, nil)
	var order []int
	mk := func(id int) xferJob {
		return xferJob{kind: xferRead, pages: 1, engineTime: sim.Microsecond,
			onDecoded: fire(func() { order = append(order, id) })}
	}
	eng.At(0, fire(func() {
		ch.submit(mk(1))
		ch.submit(mk(2))
		ch.submit(mk(3))
	}))
	eng.Run()
	for i, want := range []int{1, 2, 3} {
		if order[i] != want {
			t.Fatalf("decode order %v", order)
		}
	}
	if !ch.quiesced() {
		t.Fatal("channel not quiesced")
	}
}

func TestChannelCorUncorSplit(t *testing.T) {
	eng := sim.NewEngine()
	ch := newChannelStation(eng, 10*sim.Microsecond, 2, nil)
	eng.At(0, fire(func() {
		ch.submit(xferJob{kind: xferRead, pages: 4, uncorPages: 1, engineTime: 0})
	}))
	eng.Run()
	u := ch.usage()
	if u.Cor != 30*sim.Microsecond || u.Uncor != 10*sim.Microsecond {
		t.Fatalf("cor=%v uncor=%v", u.Cor, u.Uncor)
	}
}

func TestChannelWriteAccounting(t *testing.T) {
	eng := sim.NewEngine()
	ch := newChannelStation(eng, 10*sim.Microsecond, 2, nil)
	done := false
	eng.At(0, fire(func() {
		ch.submit(xferJob{kind: xferWrite, pages: 3, onDecoded: fire(func() { done = true })})
	}))
	eng.Run()
	if !done {
		t.Fatal("write completion not delivered")
	}
	u := ch.usage()
	if u.Write != 30*sim.Microsecond || u.Cor != 0 {
		t.Fatalf("write=%v cor=%v", u.Write, u.Cor)
	}
}

func TestChannelECCBufferBackpressure(t *testing.T) {
	// Two slow decodes fill the two buffer slots; the third transfer
	// must wait for the first decode to finish even though the wires
	// are free — the Fig. 7 ECCWAIT condition.
	eng := sim.NewEngine()
	ch := newChannelStation(eng, 10*sim.Microsecond, 2, nil)
	var thirdDecoded sim.Time
	eng.At(0, fire(func() {
		ch.submit(xferJob{kind: xferRead, pages: 1, engineTime: 100 * sim.Microsecond})
		ch.submit(xferJob{kind: xferRead, pages: 1, engineTime: 100 * sim.Microsecond})
		ch.submit(xferJob{kind: xferRead, pages: 1, engineTime: sim.Microsecond,
			onDecoded: fire(func() { thirdDecoded = eng.Now() })})
	}))
	eng.Run()
	// Timeline: x1 0-10, decode1 10-110; x2 10-20 (slot 2);
	// x3 blocked until decode1 frees a slot at 110; x3 110-120;
	// decode2 110-210; decode3 210-211.
	if want := 211 * sim.Microsecond; thirdDecoded != want {
		t.Fatalf("third decode at %v, want %v", thirdDecoded, want)
	}
	u := ch.usage()
	// ECCWAIT: channel idle and blocked during [20, 110).
	if want := 90 * sim.Microsecond; u.ECCWait != want {
		t.Fatalf("eccwait = %v, want %v", u.ECCWait, want)
	}
}

func TestChannelNoECCWaitWhenBufferDeep(t *testing.T) {
	eng := sim.NewEngine()
	ch := newChannelStation(eng, 10*sim.Microsecond, 8, nil)
	eng.At(0, fire(func() {
		for i := 0; i < 4; i++ {
			ch.submit(xferJob{kind: xferRead, pages: 1, engineTime: 100 * sim.Microsecond})
		}
	}))
	eng.Run()
	if u := ch.usage(); u.ECCWait != 0 {
		t.Fatalf("eccwait = %v with deep buffer", u.ECCWait)
	}
}

func TestChannelWriteBypassesECCBuffer(t *testing.T) {
	// A write transfer must proceed while the ECC buffer is full.
	eng := sim.NewEngine()
	ch := newChannelStation(eng, 10*sim.Microsecond, 1, nil)
	var writeDone sim.Time
	eng.At(0, fire(func() {
		ch.submit(xferJob{kind: xferRead, pages: 1, engineTime: 500 * sim.Microsecond})
		ch.submit(xferJob{kind: xferWrite, pages: 1, onDecoded: fire(func() { writeDone = eng.Now() })})
	}))
	eng.Run()
	if writeDone != 20*sim.Microsecond {
		t.Fatalf("write done at %v, want 20us (not blocked by decode)", writeDone)
	}
}

func TestChannelUsageFractionsSumToOne(t *testing.T) {
	eng := sim.NewEngine()
	ch := newChannelStation(eng, 10*sim.Microsecond, 2, nil)
	eng.At(0, fire(func() {
		ch.submit(xferJob{kind: xferRead, pages: 2, uncorPages: 1, engineTime: 50 * sim.Microsecond})
		ch.submit(xferJob{kind: xferWrite, pages: 1})
	}))
	eng.At(300*sim.Microsecond, fire(func() {})) // extend the window with idle time
	eng.Run()
	idle, cor, uncor, wait := ch.usage().Fractions()
	sum := idle + cor + uncor + wait
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("fractions sum to %v", sum)
	}
	if idle <= 0 {
		t.Fatal("expected idle time in the window")
	}
}

func TestChannelUsageEmptyWindow(t *testing.T) {
	eng := sim.NewEngine()
	ch := newChannelStation(eng, 10*sim.Microsecond, 2, nil)
	idle, cor, uncor, wait := ch.usage().Fractions()
	if idle != 1 || cor != 0 || uncor != 0 || wait != 0 {
		t.Fatal("zero-window fractions wrong")
	}
}
