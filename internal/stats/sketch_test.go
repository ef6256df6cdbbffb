package stats

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// addAll feeds the same data to a sketch and an exact sample.
func addAll(t *testing.T, xs []float64) (*Sketch, *Sample) {
	t.Helper()
	sk := NewSketch(0)
	sa := &Sample{}
	for _, x := range xs {
		sk.Add(x)
		sa.Add(x)
	}
	return sk, sa
}

// withinBound asserts the sketch estimate is within the documented
// α-relative bound of the exact nearest-rank answer (tiny float slack
// for the log/exp rounding of the bucket index).
func withinBound(t *testing.T, sk *Sketch, sa *Sample, q float64) {
	t.Helper()
	got := sk.Quantile(q)
	want := sa.Quantile(q)
	tol := SketchAlpha*want*(1+1e-9) + 1e-12
	if math.Abs(got-want) > tol {
		t.Fatalf("q=%v: sketch %v vs exact %v (tol %v, n=%d)", q, got, want, tol, sa.N())
	}
}

var sketchQuantiles = []float64{0, 1e-6, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999, 1}

// TestSketchMatchesSampleQuantile is the cross-implementation property
// test: on a spread of hostile and realistic distributions, every
// sketch quantile must sit within the documented error bound of the
// reference stats.Sample.Quantile convention.
func TestSketchMatchesSampleQuantile(t *testing.T) {
	rng := sim.NewRNG(7, 0x5e7c)
	cases := map[string][]float64{
		"empty":          {},
		"single":         {42.5},
		"single-tiny":    {1e-12},
		"point-mass":     {3.25, 3.25, 3.25, 3.25, 3.25, 3.25, 3.25},
		"point-mass-0":   {0, 0, 0, 0, 0},
		"two-values":     {1, 1, 1, 1000000},
		"powers":         {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024},
		"with-zeros":     {0, 0, 0, 10, 20, 30, 40, 50},
		"latency-shaped": nil, // filled below: lognormal with heavy tail
		"uniform":        nil,
		"exponential":    nil,
	}
	lat := make([]float64, 20000)
	for i := range lat {
		lat[i] = 40 + rng.LogNormal(3, 1.2)
	}
	cases["latency-shaped"] = lat
	uni := make([]float64, 5000)
	for i := range uni {
		uni[i] = 1 + 9999*rng.Float64()
	}
	cases["uniform"] = uni
	exp := make([]float64, 5000)
	for i := range exp {
		exp[i] = rng.Exponential(250)
	}
	cases["exponential"] = exp

	for name, xs := range cases {
		t.Run(name, func(t *testing.T) {
			sk, sa := addAll(t, xs)
			for _, q := range sketchQuantiles {
				withinBound(t, sk, sa, q)
			}
			// Edge-case convention equalities, beyond the α bound.
			if len(xs) == 0 {
				if sk.Quantile(0.5) != 0 {
					t.Fatalf("empty sketch quantile %v", sk.Quantile(0.5))
				}
				return
			}
			if sk.Quantile(0) != sa.Quantile(0) {
				t.Fatalf("q=0 not exact: %v vs %v", sk.Quantile(0), sa.Quantile(0))
			}
			if sk.Quantile(1) != sa.Quantile(1) {
				t.Fatalf("q=1 not exact: %v vs %v", sk.Quantile(1), sa.Quantile(1))
			}
		})
	}
}

// TestSketchPointMassExact pins the exactness (not just α-closeness)
// promises: single observations and point masses reproduce exactly.
func TestSketchPointMassExact(t *testing.T) {
	for _, v := range []float64{0, 1e-12, 0.1, 1, 3.7, 1e6} {
		sk := NewSketch(0)
		for i := 0; i < 9; i++ {
			sk.Add(v)
		}
		for _, q := range sketchQuantiles {
			if got := sk.Quantile(q); got != v {
				t.Fatalf("point mass at %v: q=%v gave %v", v, q, got)
			}
		}
	}
}

func TestSketchSummaryStats(t *testing.T) {
	sk, sa := addAll(t, []float64{5, 1, 9, 3, 7})
	if sk.N() != 5 || sk.Min() != 1 || sk.Max() != 9 {
		t.Fatalf("n=%d min=%v max=%v", sk.N(), sk.Min(), sk.Max())
	}
	if math.Abs(sk.Mean()-sa.Mean()) > 1e-12 {
		t.Fatalf("mean %v vs %v", sk.Mean(), sa.Mean())
	}
	if sk.Percentile(50) != sk.Quantile(0.5) {
		t.Fatal("Percentile does not delegate to Quantile")
	}
}

func TestSketchRejectsBadInput(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("negative observation", func() { NewSketch(0).Add(-1) })
	mustPanic("NaN observation", func() { NewSketch(0).Add(math.NaN()) })
	mustPanic("alpha 1", func() { NewSketch(1) })
	mustPanic("negative alpha", func() { NewSketch(-0.5) })
	mustPanic("alpha other than SketchAlpha", func() { NewSketch(0.02) })
}

// TestSketchCDFMatchesSample checks Sketch.CDF against Sample.CDF on
// the same data: as many points with the same F, each X within α of
// the exact value, and the extremes exact.
func TestSketchCDFMatchesSample(t *testing.T) {
	rng := sim.NewRNG(5, 0xcdf)
	lat := make([]float64, 3000)
	for i := range lat {
		lat[i] = 40 + rng.LogNormal(3, 1.2)
	}
	for name, xs := range map[string][]float64{
		"single":         {42.5},
		"two":            {9, 1},
		"with-zeros":     {0, 0, 0, 10, 20, 30, 40, 50},
		"latency-shaped": lat,
	} {
		sk, sa := addAll(t, xs)
		for _, points := range []int{1, 2, 5, 64, len(xs) + 10} {
			got, want := sk.CDF(points), sa.CDF(points)
			if len(got) != len(want) {
				t.Fatalf("%s/%d: %d points, sample %d", name, points, len(got), len(want))
			}
			for i := range got {
				if got[i].F != want[i].F {
					t.Fatalf("%s/%d: point %d F=%v, sample %v", name, points, i, got[i].F, want[i].F)
				}
				if tol := SketchAlpha*want[i].X*(1+1e-9) + 1e-12; math.Abs(got[i].X-want[i].X) > tol {
					t.Fatalf("%s/%d: point %d X=%v, sample %v", name, points, i, got[i].X, want[i].X)
				}
			}
			if got[0].X != sk.Min() || (points > 1 && got[len(got)-1].X != sk.Max()) {
				t.Fatalf("%s/%d: extremes %v..%v, want %v..%v", name, points, got[0].X, got[len(got)-1].X, sk.Min(), sk.Max())
			}
		}
	}
	var empty Sketch
	if empty.CDF(10) != nil {
		t.Fatal("empty sketch CDF is non-nil")
	}
	sk, _ := addAll(t, []float64{1, 2, 3})
	if sk.CDF(0) != nil || sk.CDF(-1) != nil {
		t.Fatal("CDF with points <= 0 is non-nil")
	}
}

// TestSketchMergeAssociative pins that merging is exact: (a⊕b)⊕c and
// a⊕(b⊕c) agree with each other and with the single sketch that saw
// every observation, at every probed quantile and summary stat.
func TestSketchMergeAssociative(t *testing.T) {
	rng := sim.NewRNG(11, 0xab1e)
	parts := make([][]float64, 3)
	var all []float64
	for p := range parts {
		n := 500 + int(rng.Int64N(1500))
		for i := 0; i < n; i++ {
			// Disjoint magnitude ranges per part force the merged
			// bucket span to widen in both directions.
			x := math.Pow(10, float64(p*3)) * (0.5 + rng.Exponential(20))
			parts[p] = append(parts[p], x)
			all = append(all, x)
		}
	}
	build := func(xs []float64) *Sketch {
		sk := NewSketch(0)
		for _, x := range xs {
			sk.Add(x)
		}
		return sk
	}
	left := build(parts[0])
	left.Merge(build(parts[1]))
	left.Merge(build(parts[2]))

	bc := build(parts[1])
	bc.Merge(build(parts[2]))
	right := build(parts[0])
	right.Merge(bc)

	whole := build(all)
	for _, q := range sketchQuantiles {
		l, r, w := left.Quantile(q), right.Quantile(q), whole.Quantile(q)
		if l != r {
			t.Fatalf("q=%v: (a+b)+c = %v but a+(b+c) = %v", q, l, r)
		}
		if l != w {
			t.Fatalf("q=%v: merged %v but whole-stream %v", q, l, w)
		}
	}
	if left.N() != whole.N() || left.Min() != whole.Min() || left.Max() != whole.Max() {
		t.Fatal("merged summary stats diverged from whole-stream sketch")
	}
	// The exact sample must still bracket the merged sketch.
	var sa Sample
	for _, x := range all {
		sa.Add(x)
	}
	for _, q := range sketchQuantiles {
		withinBound(t, left, &sa, q)
	}
}

func TestSketchMergeEmptyAndNil(t *testing.T) {
	sk := NewSketch(0)
	sk.Add(5)
	sk.Merge(nil)
	sk.Merge(NewSketch(0))
	if sk.N() != 1 || sk.Quantile(0.5) != 5 {
		t.Fatalf("no-op merges perturbed the sketch: n=%d", sk.N())
	}
	full := NewSketch(0)
	full.Add(2)
	full.Add(8)
	for name, empty := range map[string]*Sketch{"NewSketch(0)": NewSketch(0), "zero value": {}} {
		empty.Merge(full)
		if empty.N() != 2 || empty.Min() != 2 || empty.Max() != 8 {
			t.Fatalf("merge into empty %s lost state: n=%d min=%v max=%v", name, empty.N(), empty.Min(), empty.Max())
		}
	}
	sk.Merge(&Sketch{})
	if sk.N() != 1 {
		t.Fatalf("merging an empty zero value perturbed the sketch: n=%d", sk.N())
	}
	// Empty zero value and empty NewSketch(0), either way round.
	var zero Sketch
	zero.Merge(NewSketch(0))
	NewSketch(0).Merge(&zero)
}

// TestSketchSteadyStateAddAllocs is the zero-alloc pin: once the
// observed range has materialized its buckets, Add must not allocate —
// that is the property that keeps a 10M-request replay's heap flat.
func TestSketchSteadyStateAddAllocs(t *testing.T) {
	sk := NewSketch(0)
	rng := sim.NewRNG(3, 0xa110c)
	// Warm up: materialize the bucket range the steady state uses.
	for i := 0; i < 10000; i++ {
		sk.Add(1 + rng.Exponential(5000))
	}
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = 1 + rng.Exponential(5000)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		sk.Add(xs[i%len(xs)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Add allocates %v per op", allocs)
	}
}
