package stats

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {1, 1}, {50, 50}, {99, 99}, {99.99, 100}, {100, 100},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); got != c.want {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileUnsortedInput(t *testing.T) {
	var s Sample
	for _, x := range []float64{9, 1, 5, 3, 7} {
		s.Add(x)
	}
	if got := s.Percentile(50); got != 5 {
		t.Fatalf("median = %v", got)
	}
	// Adding after a query must re-sort.
	s.Add(0)
	if got := s.Percentile(0); got != 0 {
		t.Fatalf("min after append = %v", got)
	}
}

func TestSampleMeanAndMax(t *testing.T) {
	var s Sample
	for _, x := range []float64{1, 2, 3, 4} {
		s.Add(x)
	}
	if s.Mean() != 2.5 || s.Max() != 4 || s.N() != 4 {
		t.Fatalf("mean=%v max=%v n=%d", s.Mean(), s.Max(), s.N())
	}
}

func TestEmptySample(t *testing.T) {
	var s Sample
	if s.Percentile(50) != 0 || s.Mean() != 0 || s.CDF(10) != nil {
		t.Fatal("empty sample not zero-valued")
	}
}

func TestCDFShape(t *testing.T) {
	var s Sample
	for i := 0; i < 1000; i++ {
		s.Add(float64(i))
	}
	cdf := s.CDF(50)
	if len(cdf) != 50 {
		t.Fatalf("CDF has %d points", len(cdf))
	}
	if cdf[0].X != 0 {
		t.Fatalf("CDF does not start at min: %v", cdf[0])
	}
	if cdf[len(cdf)-1].X != 999 || cdf[len(cdf)-1].F != 1 {
		t.Fatalf("CDF does not end at (max, 1): %+v", cdf[len(cdf)-1])
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].X < cdf[i-1].X || cdf[i].F < cdf[i-1].F {
			t.Fatal("CDF not monotonic")
		}
	}
}

func TestCDFSmallSample(t *testing.T) {
	var s Sample
	s.Add(5)
	s.Add(1)
	cdf := s.CDF(10)
	if len(cdf) != 2 {
		t.Fatalf("CDF of 2 points has %d entries", len(cdf))
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 100}); math.Abs(g-10) > 1e-12 {
		t.Fatalf("GeoMean = %v, want 10", g)
	}
	if g := GeoMean([]float64{7}); g != 7 {
		t.Fatalf("GeoMean single = %v", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Fatalf("GeoMean empty = %v", g)
	}
}

func TestGeoMeanRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("GeoMean accepted zero")
		}
	}()
	GeoMean([]float64{1, 0})
}
