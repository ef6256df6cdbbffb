package resultcache

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/nand"
	"repro/internal/ssd"
)

// TestKeyStructFieldCountsPinned guards the canonical encoding against
// silent drift: appendConfig and Keyer.Key enumerate struct fields by
// hand, so any field added to (or removed from) the encoded types must
// fail here until the encoder is updated and SchemaVersion is bumped.
func TestKeyStructFieldCountsPinned(t *testing.T) {
	pins := []struct {
		name   string
		typ    reflect.Type
		fields int
	}{
		{"core.RunParams", reflect.TypeOf(core.RunParams{}), 13},
		{"ssd.Config", reflect.TypeOf(ssd.Config{}), 20},
		{"ssd.Timing", reflect.TypeOf(ssd.Timing{}), 6},
		{"nand.Geometry", reflect.TypeOf(nand.Geometry{}), 6},
		{"nand.ModelParams", reflect.TypeOf(nand.ModelParams{}), 12},
		{"faults.Config", reflect.TypeOf(faults.Config{}), 7},
	}
	for _, p := range pins {
		if got := p.typ.NumField(); got != p.fields {
			t.Errorf("%s has %d fields, encoder assumes %d: update the canonical encoding in key.go and bump SchemaVersion",
				p.name, got, p.fields)
		}
	}
}

func TestKeyDeterministicAcrossKeyers(t *testing.T) {
	p := core.DefaultRunParams()
	a := NewKeyer().Key("chaos", p)
	b := NewKeyer().Key("chaos", p)
	if a != b {
		t.Fatalf("same inputs, different keys: %s vs %s", a, b)
	}
	if len(a.String()) != 64 {
		t.Fatalf("key hex = %q", a.String())
	}
}

// TestKeySensitivity checks that every semantic input moves the
// address and every plumbing input does not.
func TestKeySensitivity(t *testing.T) {
	base := core.DefaultRunParams()
	k := NewKeyer()
	ref := k.Key("chaos", base)

	mutations := []struct {
		name string
		exp  string
		mut  func(p *core.RunParams)
	}{
		{"experiment", "tailsweep", func(p *core.RunParams) {}},
		{"requests", "chaos", func(p *core.RunParams) { p.Requests++ }},
		{"seed", "chaos", func(p *core.RunParams) { p.Seed++ }},
		{"footprint", "chaos", func(p *core.RunParams) { p.FootprintPages *= 2 }},
		{"shrink", "chaos", func(p *core.RunParams) { p.Shrink = !p.Shrink }},
		{"faults", "chaos", func(p *core.RunParams) { p.Faults.TransientSenseRate = 0.01 }},
	}
	for _, m := range mutations {
		p := base
		m.mut(&p)
		if got := k.Key(m.exp, p); got == ref {
			t.Errorf("%s: key unchanged by a semantic input", m.name)
		}
	}

	invariants := []struct {
		name string
		mut  func(p *core.RunParams)
	}{
		{"workers", func(p *core.RunParams) { p.Workers = 7 }},
		{"stop", func(p *core.RunParams) { p.Stop = func() bool { return false } }},
		{"tool", func(p *core.RunParams) { p.Tool = "other" }},
		{"experiment-label", func(p *core.RunParams) { p.Experiment = "other" }},
	}
	for _, m := range invariants {
		p := base
		m.mut(&p)
		if got := k.Key("chaos", p); got != ref {
			t.Errorf("%s: key moved by output-invariant plumbing", m.name)
		}
	}
}

// TestKeyZeroAllocSteadyState is the runtime half of the
// //riflint:hotpath annotation on Keyer.Key: after the first call
// warms the encoding buffer, computing a content address allocates
// nothing.
func TestKeyZeroAllocSteadyState(t *testing.T) {
	k := NewKeyer()
	p := core.DefaultRunParams()
	p.Faults.StuckBlockRate = 1e-4
	k.Key("tailsweep", p) // warm the buffer
	allocs := testing.AllocsPerRun(100, func() {
		_ = k.Key("tailsweep", p)
	})
	if allocs != 0 {
		t.Fatalf("Keyer.Key allocates %.1f times per call in steady state; want 0", allocs)
	}
}

func BenchmarkKeyerKey(b *testing.B) {
	k := NewKeyer()
	p := core.DefaultRunParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = k.Key("chaos", p)
	}
}
