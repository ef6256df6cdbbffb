// Package stats provides the lightweight statistics the experiment
// harness needs: a fixed-memory quantile sketch with CDF export, the
// exact reference sample it is checked against, and geometric means.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample keeps every observation for exact percentile queries. It is
// the reference for the repository's quantile convention: the tests
// of Sketch (the distribution the simulator records) and of the obs
// percentile rules compare against it.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N reports the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean reports the arithmetic mean (0 when empty).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range s.xs {
		t += x
	}
	return t / float64(len(s.xs))
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile reports the q-th quantile (0 <= q <= 1) of the sample.
//
// This is the reference convention; stats.Sketch follows the same
// edge-case rules and estimates the same value within its α bound:
//
//   - empty sample: 0
//   - q <= 0: the exact minimum; q >= 1: the exact maximum
//   - otherwise nearest-rank: the value of the ceil(q*n)-th smallest
//     observation (1-based), with no interpolation between
//     observations. A rank landing exactly on an integer selects that
//     observation, not the next one.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	rank := int(math.Ceil(q * float64(len(s.xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s.xs) {
		rank = len(s.xs)
	}
	return s.xs[rank-1]
}

// Percentile reports the p-th percentile (0 <= p <= 100) using
// nearest-rank on the sorted sample (see Quantile for the exact
// convention). Empty samples yield 0.
func (s *Sample) Percentile(p float64) float64 {
	return s.Quantile(p / 100)
}

// Max reports the largest observation (0 when empty).
func (s *Sample) Max() float64 { return s.Percentile(100) }

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64 // value
	F float64 // cumulative fraction <= X
}

// CDF returns an empirical CDF downsampled to at most points entries
// (always including the extremes); Sketch.CDF returns the same points
// with estimated X.
func (s *Sample) CDF(points int) []CDFPoint {
	if len(s.xs) == 0 || points <= 0 {
		return nil
	}
	s.sort()
	if points > len(s.xs) {
		points = len(s.xs)
	}
	out := make([]CDFPoint, 0, points)
	for i := 0; i < points; i++ {
		idx := i * (len(s.xs) - 1) / max(points-1, 1)
		out = append(out, CDFPoint{
			X: s.xs[idx],
			F: float64(idx+1) / float64(len(s.xs)),
		})
	}
	return out
}

// GeoMean reports the geometric mean of xs; non-positive entries are
// rejected with a panic because they indicate a harness bug.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	acc := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %v", x))
		}
		acc += math.Log(x)
	}
	return math.Exp(acc / float64(len(xs)))
}
