package obs

import (
	"testing"

	"repro/internal/stats"
)

// Percentile is Quantile with the axis scaled by 100; exact-decimal
// pairs must agree bit-for-bit.
func TestPercentileQuantileEquivalence(t *testing.T) {
	var s stats.Sample
	for i := 1; i <= 357; i++ {
		s.Add(float64(i * i % 101))
	}
	for _, pq := range [][2]float64{{0, 0}, {25, 0.25}, {50, 0.5}, {75, 0.75}, {100, 1}} {
		if got, want := s.Percentile(pq[0]), s.Quantile(pq[1]); got != want {
			t.Errorf("Percentile(%v) = %v != Quantile(%v) = %v", pq[0], got, pq[1], want)
		}
	}
}
