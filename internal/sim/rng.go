package sim

import (
	"math"
	"math/rand/v2"
)

// RNG is a seeded random source. Every stochastic component of the
// simulator draws from its own numbered stream (NewRNG's stream) so that
// adding a component never perturbs the draws of another — runs stay
// reproducible under model evolution.
type RNG struct {
	*rand.Rand
}

// NewRNG returns a PCG-backed source seeded with (seed, stream).
func NewRNG(seed, stream uint64) *RNG {
	return &RNG{rand.New(rand.NewPCG(seed, stream))}
}

// Bernoulli reports true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Normal draws from N(mean, sigma^2).
func (r *RNG) Normal(mean, sigma float64) float64 {
	return mean + sigma*r.NormFloat64()
}

// LogNormal draws from a log-normal distribution whose underlying
// normal has the given mu and sigma.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Exponential draws an exponentially distributed value with the given
// mean (not rate).
func (r *RNG) Exponential(mean float64) float64 {
	return r.ExpFloat64() * mean
}
