package trace

import (
	"math"

	"repro/internal/sim"
)

// Generator draws an endless request stream matching a Spec. It is a
// deterministic function of (spec, seed). The logical address space is
// laid out as [cold region | hot region]: writes and hot reads stay in
// the hot region, so the cold region is never updated — exactly the
// paper's definition of cold reads.
type Generator struct {
	spec Spec
	rng  *sim.RNG

	coldPages int64 // [0, coldPages) is the cold region
	hotPages  int64 // [coldPages, coldPages+hotPages) is the hot region
}

// NewGenerator builds a generator for the spec.
func NewGenerator(spec Spec, seed uint64) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	hot := int64(float64(spec.FootprintPages) * spec.HotFraction)
	if hot < 1 {
		hot = 1
	}
	cold := spec.FootprintPages - hot
	if cold < 1 {
		cold = 1
	}
	return &Generator{
		spec:      spec,
		rng:       sim.NewRNG(seed, 0xace),
		coldPages: cold,
		hotPages:  hot,
	}, nil
}

// Next draws the next request. Arrival times are left zero: the
// closed-loop host driver issues requests as queue slots free up.
func (g *Generator) Next() Request {
	op := Write
	if g.rng.Bernoulli(g.spec.ReadRatio) {
		op = Read
	}
	pages := g.reqPages(op)
	var lpn int64
	if op == Read && g.rng.Bernoulli(g.spec.ColdReadRatio) {
		lpn = g.pick(g.coldPages, pages)
	} else {
		lpn = g.coldPages + g.pick(g.hotPages, pages)
	}
	return Request{Op: op, LPN: lpn, Pages: pages}
}

// reqPages draws a request length with the configured mean: a
// bounded geometric mixture that produces the small-random /
// large-sequential blend of cloud block traces.
func (g *Generator) reqPages(op Op) int {
	// 30% of requests are "large" (4x the mean), 70% small, keeping
	// the overall mean at MeanReqPages.
	mean := g.spec.MeanReqPages
	if op == Write {
		mean *= g.spec.WriteSizeRatio
	}
	small := mean * 0.4
	large := mean * 2.4
	m := small
	if g.rng.Bernoulli(0.3) {
		m = large
	}
	p := int(g.rng.Exponential(m)) + 1
	if p > 16 {
		p = 16 // one multi-plane stripe group cap, like a 256-KiB request
	}
	return p
}

// pick draws an aligned start so the request fits in [0, limit).
func (g *Generator) pick(limit int64, pages int) int64 {
	span := limit - int64(pages)
	if span <= 0 {
		return 0
	}
	// Align to the request size's stripe position so multi-page
	// requests map onto whole multi-plane groups when possible.
	lpn := g.rng.Int64N(span)
	if pages >= 4 {
		lpn &^= 3
	}
	return lpn
}

// InitialAgeDays reports the retention age of a logical page's data
// at simulation start. Cold pages carry ages spread over the refresh
// horizon; hot pages start essentially fresh.
func (g *Generator) InitialAgeDays(lpn int64) float64 {
	if lpn >= g.coldPages {
		return 0.02 // hot data: about half an hour old
	}
	span := g.spec.MaxAgeDays - g.spec.MinAgeDays
	return g.spec.MinAgeDays + span*hashUnit(uint64(lpn)*0x9e3779b97f4a7c15+1)
}

// hashUnit maps a key to a uniform [0,1) value.
func hashUnit(z uint64) float64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// MeasuredMix empirically verifies a generator reproduces its spec:
// it draws n requests and reports the realized read ratio and
// cold-read ratio.
func MeasuredMix(g *Generator, n int) (readRatio, coldReadRatio float64) {
	reads, cold := 0, 0
	for i := 0; i < n; i++ {
		r := g.Next()
		if r.Op != Read {
			continue
		}
		reads++
		if r.LPN < g.coldPages {
			cold++
		}
	}
	if n > 0 {
		readRatio = float64(reads) / float64(n)
	}
	if reads > 0 {
		coldReadRatio = float64(cold) / float64(reads)
	}
	return readRatio, coldReadRatio
}

// AgeProfile reports the mean initial age, in days, of the cold
// region sampled at k points — a calibration aid.
func (g *Generator) AgeProfile(k int) float64 {
	if k <= 0 {
		return 0
	}
	total := 0.0
	step := g.coldPages / int64(k)
	if step < 1 {
		step = 1
	}
	n := 0
	for lpn := int64(0); lpn < g.coldPages && n < k; lpn += step {
		total += g.InitialAgeDays(lpn)
		n++
	}
	return total / math.Max(float64(n), 1)
}
