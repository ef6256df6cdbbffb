// Package faults is the simulator's deterministic fault-injection
// subsystem. It models the failure regimes a tail-life SSD actually
// lives in — transient sense failures, grown-bad (stuck) blocks, die
// dropout, channel transfer corruption, read-retry-predictor
// misprediction and LDPC decode timeouts — as seeded stochastic
// processes the device model consults on its hot paths.
//
// Determinism contract: every decision an Injector makes is a pure
// function of (run seed, fault config, query order). Static topology
// faults (stuck blocks, dead dies) are decided by a splitmix64 hash of
// (seed, id), so they are independent of query order and identical
// across any worker count; dynamic per-event faults draw from
// dedicated sim.RNG streams derived from the run seed, and the
// single-threaded simulation engine fixes their draw order. A
// zero-rate class never draws at all, so enabling the subsystem with
// all rates at zero is byte-identical to not having it — the property
// the figure regression tests pin.
package faults

import (
	"fmt"

	"repro/internal/sim"
)

// DefaultMaxSenseRetries bounds re-senses per transiently failing
// array read when Config.MaxSenseRetries is zero.
const DefaultMaxSenseRetries = 3

// Config sets the per-class fault rates. The zero value disables
// injection entirely.
type Config struct {
	// TransientSenseRate is the per-sense probability that an array
	// read glitches and must be re-issued (each re-sense pays the full
	// sense latency again, bounded by MaxSenseRetries).
	TransientSenseRate float64 `json:"transient_sense_rate,omitempty"`
	// MaxSenseRetries bounds consecutive re-senses of one operation
	// (0 means DefaultMaxSenseRetries).
	MaxSenseRetries int `json:"max_sense_retries,omitempty"`
	// StuckBlockRate is the fraction of physical blocks grown bad at
	// run start: every page in a stuck block reads uncorrectable at
	// any VREF, so its reads exhaust the retry ladder and surface as
	// media errors while the FTL retires the block.
	StuckBlockRate float64 `json:"stuck_block_rate,omitempty"`
	// DieDropoutRate is the fraction of dies dead at run start. Reads
	// of data homed on a dead die fail after a probe sense; writes
	// fail over to the next live die.
	DieDropoutRate float64 `json:"die_dropout_rate,omitempty"`
	// ChannelCorruptRate is the per-transfer probability that a read
	// transfer is corrupted in flight and must be re-issued from the
	// die's page buffer.
	ChannelCorruptRate float64 `json:"channel_corrupt_rate,omitempty"`
	// MispredictRate is the per-prediction probability that the RP
	// engine's output is forcibly inverted, independent of its
	// calibrated accuracy model.
	MispredictRate float64 `json:"mispredict_rate,omitempty"`
	// DecodeTimeoutRate is the per-page probability that an LDPC
	// decode times out: the page burns a full failing decode this
	// round and enters the scheme's retry ladder.
	DecodeTimeoutRate float64 `json:"decode_timeout_rate,omitempty"`
}

// Enabled reports whether any fault class can fire.
func (c Config) Enabled() bool {
	return c.TransientSenseRate > 0 || c.StuckBlockRate > 0 || c.DieDropoutRate > 0 ||
		c.ChannelCorruptRate > 0 || c.MispredictRate > 0 || c.DecodeTimeoutRate > 0
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"transient sense", c.TransientSenseRate},
		{"stuck block", c.StuckBlockRate},
		{"die dropout", c.DieDropoutRate},
		{"channel corrupt", c.ChannelCorruptRate},
		{"mispredict", c.MispredictRate},
		{"decode timeout", c.DecodeTimeoutRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("faults: %s rate %v outside [0,1]", r.name, r.v)
		}
	}
	if c.MaxSenseRetries < 0 {
		return fmt.Errorf("faults: max sense retries %d", c.MaxSenseRetries)
	}
	return nil
}

// Stream labels for the dynamic fault classes. They live above the
// simulator's own streams (101, 102) so adding a class never perturbs
// another component's draws.
const (
	streamSense     = 201
	streamCorrupt   = 202
	streamPredict   = 203
	streamTimeout   = 204
	classStuckBlock = 0x5b
	classDeadDie    = 0xdd
)

// Injector answers the device model's fault queries. A nil Injector
// is valid and never injects — the device wires one up only when the
// config enables at least one class.
type Injector struct {
	cfg  Config
	seed uint64

	sense   *sim.RNG
	corrupt *sim.RNG
	predict *sim.RNG
	timeout *sim.RNG
}

// New builds an injector whose every stream derives from the run
// seed. It returns nil when cfg injects nothing, so callers can hang
// it off a struct field and query unconditionally.
func New(cfg Config, seed uint64) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{
		cfg:     cfg,
		seed:    seed,
		sense:   sim.NewRNG(seed, streamSense),
		corrupt: sim.NewRNG(seed, streamCorrupt),
		predict: sim.NewRNG(seed, streamPredict),
		timeout: sim.NewRNG(seed, streamTimeout),
	}
}

// mix is the splitmix64 finalizer: a fixed bijective scramble used to
// turn (seed, id) pairs into uniform decision bits without any RNG
// state, so static-topology decisions are query-order independent.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// decide hashes (seed, class, id) against a rate threshold.
func (i *Injector) decide(class, id uint64, rate float64) bool {
	if i == nil || rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	h := mix(i.seed ^ mix(class<<56|id+1))
	return float64(h>>11)/float64(uint64(1)<<53) < rate
}

// SenseRetries draws the number of extra senses a transiently failing
// array read needs (0 when the class is off or the sense succeeds
// first try). Bounded by MaxSenseRetries: the hardware gives up and
// hands whatever is in the page buffer to the decode path.
func (i *Injector) SenseRetries() int {
	if i == nil || i.cfg.TransientSenseRate <= 0 {
		return 0
	}
	max := i.cfg.MaxSenseRetries
	if max <= 0 {
		max = DefaultMaxSenseRetries
	}
	n := 0
	for n < max && i.sense.Bernoulli(i.cfg.TransientSenseRate) {
		n++
	}
	return n
}

// BlockStuck reports whether the physical block with the given dense
// id is grown bad for this run. Pure hash: stable under query order
// and worker count.
func (i *Injector) BlockStuck(blockID int) bool {
	if i == nil {
		return false
	}
	return i.decide(classStuckBlock, uint64(blockID), i.cfg.StuckBlockRate)
}

// DieDown reports whether the die with the given dense id dropped out
// for this run. Pure hash, like BlockStuck.
func (i *Injector) DieDown(dieID int) bool {
	if i == nil {
		return false
	}
	return i.decide(classDeadDie, uint64(dieID), i.cfg.DieDropoutRate)
}

// TransferCorrupted draws whether one completed read transfer was
// corrupted on the channel.
func (i *Injector) TransferCorrupted() bool {
	if i == nil || i.cfg.ChannelCorruptRate <= 0 {
		return false
	}
	return i.corrupt.Bernoulli(i.cfg.ChannelCorruptRate)
}

// ForceMispredict draws whether one RP prediction is forcibly
// inverted.
func (i *Injector) ForceMispredict() bool {
	if i == nil || i.cfg.MispredictRate <= 0 {
		return false
	}
	return i.predict.Bernoulli(i.cfg.MispredictRate)
}

// DecodeTimeout draws whether one page's LDPC decode times out this
// round.
func (i *Injector) DecodeTimeout() bool {
	if i == nil || i.cfg.DecodeTimeoutRate <= 0 {
		return false
	}
	return i.timeout.Bernoulli(i.cfg.DecodeTimeoutRate)
}
