package stats

import "testing"

// TestQuantileConvention pins the reference edge-case convention
// Percentile and Quantile share (see Sample.Quantile's doc):
// empty -> 0, q <= 0 -> exact min, q >= 1 -> exact max, otherwise the
// ceil(q*n)-th smallest observation.
func TestQuantileConvention(t *testing.T) {
	var empty Sample
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty.Quantile(%v) = %v, want 0", q, got)
		}
	}

	var one Sample
	one.Add(7.25)
	for _, q := range []float64{-1, 0, 1e-9, 0.5, 1 - 1e-9, 1, 2} {
		if got := one.Quantile(q); got != 7.25 {
			t.Errorf("single.Quantile(%v) = %v, want 7.25", q, got)
		}
	}

	// Unsorted input; n=4 so rank boundaries sit at q = .25/.5/.75/1.
	var s Sample
	for _, x := range []float64{30, 10, 40, 20} {
		s.Add(x)
	}
	for _, tc := range []struct{ q, want float64 }{
		{-0.5, 10}, {0, 10}, // q <= 0 is the exact minimum
		{0.1, 10}, {0.25, 10}, // rank 1 up to the first boundary
		{0.2500001, 20}, {0.5, 20}, // past a boundary the next rank takes over
		{0.51, 30}, {0.75, 30},
		{0.76, 40}, {1, 40},
		{1.5, 40}, // q >= 1 is the exact maximum
	} {
		if got := s.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

// TestPercentileDelegatesToQuantile: Percentile(p) must be exactly
// Quantile(p/100) — one implementation, not two conventions.
func TestPercentileDelegatesToQuantile(t *testing.T) {
	var s Sample
	for i := 1; i <= 101; i++ {
		s.Add(float64((i * 37) % 101))
	}
	for _, p := range []float64{0, 1, 25, 50, 75, 99, 99.99, 100} {
		if got, want := s.Percentile(p), s.Quantile(p/100); got != want {
			t.Errorf("Percentile(%v) = %v, Quantile(%v) = %v; must be identical", p, got, p/100, want)
		}
	}
}
