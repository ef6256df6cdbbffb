package faults

import (
	"errors"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestStorageConfigValidate pins the rate bounds.
func TestStorageConfigValidate(t *testing.T) {
	good := []StorageConfig{
		{},
		{WriteErrorRate: 1, TornWriteRate: 0.5, SyncErrorRate: 0.1, BitRotRate: 0.01, SlowIORate: 1, SlowIODelayMS: 50},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("config %+v rejected: %v", c, err)
		}
	}
	bad := []StorageConfig{
		{WriteErrorRate: -0.1},
		{TornWriteRate: 1.1},
		{SyncErrorRate: 2},
		{BitRotRate: -1},
		{SlowIORate: 1.5},
		{SlowIODelayMS: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
}

// TestStorageInjectorDisabled pins the nil-injector contract: a zero
// config constructs nil, and every method on a nil injector is a safe
// no-decision.
func TestStorageInjectorDisabled(t *testing.T) {
	if inj := NewStorage(StorageConfig{}, 1); inj != nil {
		t.Fatal("zero config built a non-nil injector")
	}
	var inj *StorageInjector
	if inj.WriteError() {
		t.Error("nil injector injected a write error")
	}
	if torn, _ := inj.TornWrite(); torn {
		t.Error("nil injector tore a write")
	}
	if inj.SyncError() {
		t.Error("nil injector injected a sync error")
	}
	if _, rot := inj.BitRot(100); rot {
		t.Error("nil injector rotted a byte")
	}
	if inj.SlowIO() != 0 {
		t.Error("nil injector stalled")
	}
}

// TestStorageInjectorDeterministic pins that fault decisions are a
// pure function of (seed, config, query order): two injectors with the
// same seed agree draw-for-draw, and a different seed diverges
// somewhere.
func TestStorageInjectorDeterministic(t *testing.T) {
	cfg := StorageConfig{
		WriteErrorRate: 0.3, TornWriteRate: 0.3, SyncErrorRate: 0.3,
		BitRotRate: 0.3, SlowIORate: 0.3,
	}
	type draw struct {
		write, torn, sync, rot, slow bool
		frac                         float64
		idx                          int
	}
	sample := func(seed uint64) []draw {
		inj := NewStorage(cfg, seed)
		out := make([]draw, 64)
		for i := range out {
			d := &out[i]
			d.write = inj.WriteError()
			d.torn, d.frac = inj.TornWrite()
			d.sync = inj.SyncError()
			d.idx, d.rot = inj.BitRot(1000)
			d.slow = inj.SlowIO() > 0
		}
		return out
	}
	a, b, c := sample(7), sample(7), sample(8)
	diverged := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across identical seeds: %+v vs %+v", i, a[i], b[i])
		}
		if a[i] != c[i] {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("seeds 7 and 8 produced identical draw sequences")
	}
}

// TestStorageInjectorCertainRates pins the rate-1.0 behavior every
// fault-injection test leans on, and the shape of each decision.
func TestStorageInjectorCertainRates(t *testing.T) {
	inj := NewStorage(StorageConfig{
		WriteErrorRate: 1, TornWriteRate: 1, SyncErrorRate: 1,
		BitRotRate: 1, SlowIORate: 1, SlowIODelayMS: 7,
	}, 1)
	for i := 0; i < 32; i++ {
		if !inj.WriteError() || !inj.SyncError() {
			t.Fatal("rate-1.0 class failed to fire")
		}
		torn, frac := inj.TornWrite()
		if !torn || frac <= 0 || frac >= 1 {
			t.Fatalf("torn write (%v, %v); want fired with fraction in (0,1)", torn, frac)
		}
		idx, rot := inj.BitRot(10)
		if !rot || idx < 0 || idx >= 10 {
			t.Fatalf("bit rot (%d, %v); want fired with index in [0,10)", idx, rot)
		}
		if d := inj.SlowIO(); d != 7*time.Millisecond {
			t.Fatalf("slow io stall %v; want 7ms", d)
		}
	}
	if _, rot := inj.BitRot(0); rot {
		t.Fatal("bit rot fired on an empty read")
	}
	if d := NewStorage(StorageConfig{SlowIORate: 1}, 1).SlowIO(); d != DefaultSlowIODelayMS*time.Millisecond {
		t.Fatalf("default stall %v; want %dms", d, DefaultSlowIODelayMS)
	}
}

// TestStorageInjectorErrnos pins that injected failures wrap the
// errnos organic ones carry, so callers matching on errno treat both
// identically.
func TestStorageInjectorErrnos(t *testing.T) {
	if !errors.Is(ErrInjectedWrite, syscall.ENOSPC) {
		t.Error("injected write error does not wrap ENOSPC")
	}
	if !errors.Is(ErrInjectedSync, syscall.EIO) {
		t.Error("injected sync error does not wrap EIO")
	}
}

// The result store and the job journal share one injector from
// different goroutines; under -race, unguarded draws on its streams
// are a data race.
func TestStorageInjectorConcurrentDraws(t *testing.T) {
	inj := NewStorage(StorageConfig{WriteErrorRate: 0.5, TornWriteRate: 0.5, SyncErrorRate: 0.5, BitRotRate: 0.5, SlowIORate: 0.5, SlowIODelayMS: 1}, 3)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				inj.WriteError()
				inj.TornWrite()
				inj.SyncError()
				inj.BitRot(64)
				inj.SlowIO()
			}
		}()
	}
	wg.Wait()
}
