package stats

import (
	"fmt"
	"math"
)

// SketchAlpha is every sketch's relative-accuracy target: quantile
// estimates land within ±1% of the exact nearest-rank value.
const SketchAlpha = 0.01

// sketchGamma is the bucket growth (1+α)/(1−α) at SketchAlpha.
var (
	sketchGamma   = (1 + SketchAlpha) / (1 - SketchAlpha)
	sketchLnGamma = math.Log(sketchGamma)
)

// SketchMinValue is the smallest positive observation the sketch
// resolves individually; anything in (0, SketchMinValue) folds into
// the underflow bucket alongside exact zeros. Latencies in this
// repository are microseconds (≥ ~0.1), far above the cutoff.
const SketchMinValue = 1e-9

// Sketch is a mergeable, fixed-memory streaming quantile sketch over
// non-negative observations (a DDSketch-style log-bucket design):
// observations land in geometrically spaced buckets whose width is set
// by the relative-accuracy parameter α = SketchAlpha, so memory is
// O(log(max/min)/α) — independent of the observation count. It is
// the one latency distribution the simulator records: every report's
// percentiles and Fig. 19's CDF are read from it. The zero value is an
// empty sketch at SketchAlpha, ready to use.
//
// Error bound, stated against the repository's reference quantile
// convention (Sample.Quantile, nearest-rank):
//
//   - empty sketch: 0; q <= 0: the exact minimum; q >= 1: the exact
//     maximum — all identical to Sample.
//   - a single observation, and any point-mass distribution, are
//     reproduced exactly at every q (estimates are clamped to the
//     exact observed [min, max]).
//   - otherwise, for q in (0, 1), let x be Sample.Quantile(q) of the
//     same data with x >= SketchMinValue; then
//     |Quantile(q) − x| <= α·x.
//
// Observations below SketchMinValue (including zero) share one
// underflow bucket and are estimated at the exact minimum, so the
// relative bound above applies to quantiles that land on observations
// at or above the cutoff. Negative observations panic: latencies are
// never negative, so one indicates a harness bug (the GeoMean
// convention).
type Sketch struct {
	// counts[i] is the population of log bucket (minKey+i); bucket k
	// covers (γ^(k−1), γ^k]. The slice grows (amortized) as the
	// observed range widens and then stays put: steady-state Add is
	// allocation-free.
	counts []int64
	minKey int

	// zero counts observations in [0, SketchMinValue).
	zero int64

	n        int64
	sum      float64
	min, max float64
}

// NewSketch returns an empty sketch, the same as new(Sketch). alpha
// must be 0 or SketchAlpha, the only accuracy there is; anything else
// panics rather than silently giving a different bound.
func NewSketch(alpha float64) *Sketch {
	if alpha != 0 && alpha != SketchAlpha {
		panic(fmt.Sprintf("stats: sketch alpha %v, only %v is supported", alpha, SketchAlpha))
	}
	return new(Sketch)
}

// key maps a positive observation to its log-bucket index.
func key(x float64) int {
	return int(math.Ceil(math.Log(x) / sketchLnGamma))
}

// Add folds one observation into the sketch. Steady state (an
// observation whose bucket already exists) allocates nothing.
//
//riflint:hotpath
func (s *Sketch) Add(x float64) {
	if x < 0 || math.IsNaN(x) {
		panic(fmt.Sprintf("stats: sketch observation %v", x))
	}
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	s.sum += x
	if x < SketchMinValue {
		s.zero++
		return
	}
	s.bucket(key(x))
}

// bucket increments bucket k, growing the dense range if needed.
func (s *Sketch) bucket(k int) {
	if len(s.counts) == 0 {
		//riflint:allow alloc -- first observation seeds the dense range; never reached again
		s.counts = append(s.counts, 0)
		s.minKey = k
	}
	if k < s.minKey {
		//riflint:allow alloc -- range extension: at most O(log range) growths over a run, then steady state
		grown := make([]int64, len(s.counts)+(s.minKey-k))
		copy(grown[s.minKey-k:], s.counts)
		s.counts = grown
		s.minKey = k
	}
	for k >= s.minKey+len(s.counts) {
		//riflint:allow alloc -- range extension: at most O(log range) growths over a run, then steady state
		s.counts = append(s.counts, 0)
	}
	s.counts[k-s.minKey]++
}

// N reports the number of observations.
func (s *Sketch) N() int64 { return s.n }

// Mean reports the arithmetic mean (0 when empty).
func (s *Sketch) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Min reports the smallest observation (0 when empty).
func (s *Sketch) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max reports the largest observation (0 when empty).
func (s *Sketch) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Quantile estimates the q-th quantile under the documented error
// bound (see the type comment for the exact convention).
func (s *Sketch) Quantile(q float64) float64 {
	if s.n == 0 {
		return 0
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	rank := int64(math.Ceil(q * float64(s.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.n {
		rank = s.n
	}
	return s.atRank(rank)
}

// atRank estimates the rank-th smallest observation (1 <= rank <= n).
func (s *Sketch) atRank(rank int64) float64 {
	if rank <= s.zero {
		// The target observation is below the resolvable cutoff; the
		// exact minimum is the best (and for all-zero data, exact)
		// answer.
		return s.clamp(0)
	}
	seen := s.zero
	for i, cnt := range s.counts {
		if cnt == 0 {
			continue
		}
		seen += cnt
		if seen >= rank {
			k := s.minKey + i
			// The midpoint (in the 2γ/(γ+1) sense) of bucket
			// (γ^(k−1), γ^k] is within α of every value in it.
			return s.clamp(2 * math.Exp(float64(k)*sketchLnGamma) / (sketchGamma + 1))
		}
	}
	return s.max
}

// Percentile reports the p-th percentile (0 <= p <= 100), mirroring
// Sample.Percentile.
func (s *Sketch) Percentile(p float64) float64 {
	return s.Quantile(p / 100)
}

// CDF returns the points Sample.CDF returns for the same observations:
// as many, with the same cumulative fractions F. Each X is the
// Quantile estimate at its point's rank, within α of the exact value;
// the first and last X are the exact minimum and maximum.
func (s *Sketch) CDF(points int) []CDFPoint {
	if s.n == 0 || points <= 0 {
		return nil
	}
	out := make([]CDFPoint, min(int64(points), s.n))
	for i := range out {
		idx := int64(i) * (s.n - 1) / int64(max(len(out)-1, 1))
		out[i] = CDFPoint{X: s.atRank(idx + 1), F: float64(idx+1) / float64(s.n)}
	}
	out[len(out)-1].X = s.max
	out[0].X = s.min
	return out
}

// clamp bounds an estimate to the exact observed extremes, which makes
// single-observation and point-mass data exact.
func (s *Sketch) clamp(x float64) float64 {
	if x < s.min {
		return s.min
	}
	if x > s.max {
		return s.max
	}
	return x
}

// Merge folds other into s. Merging is exact (bucket counts add), so
// any merge tree over the same observations yields an identical
// sketch: merge is associative and commutative. The other sketch is
// not modified; a nil or empty other is a no-op.
func (s *Sketch) Merge(other *Sketch) {
	if other == nil || other.n == 0 {
		return
	}
	if s.n == 0 {
		s.min, s.max = other.min, other.max
	} else {
		if other.min < s.min {
			s.min = other.min
		}
		if other.max > s.max {
			s.max = other.max
		}
	}
	s.n += other.n
	s.sum += other.sum
	s.zero += other.zero
	for i, cnt := range other.counts {
		if cnt == 0 {
			continue
		}
		s.bucket(other.minKey + i)
		s.counts[other.minKey+i-s.minKey] += cnt - 1 // bucket already added 1
	}
}
