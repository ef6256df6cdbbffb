// Golden fixture for the simtime units checker.
package simtime

import "repro/internal/sim"

const pollInterval sim.Time = 40000 // want `raw constant 40000 used as sim\.Time`

const okInterval = 40 * sim.Microsecond

// nop is an event handler that does nothing.
type nop struct{}

func (nop) Fire() {}

func schedule(e *sim.Engine) {
	e.At(40000, nop{}) // want `raw constant 40000 used as sim\.Time`
	e.At(40*sim.Microsecond, nop{})
	e.At(0, nop{})                   // zero is zero in every unit
	e.After(sim.Time(3*1000), nop{}) // want `raw constant 3000 used as sim\.Time`
}

type timing struct {
	ReadLatency sim.Time
	XferLatency sim.Time
}

func badDefaults() timing {
	return timing{
		ReadLatency: 5212, // want `raw constant 5212 used as sim\.Time`
		XferLatency: 3 * sim.Microsecond,
	}
}

func okDefaults() timing {
	return timing{
		ReadLatency: 52*sim.Microsecond + 120*sim.Nanosecond,
		XferLatency: 3 * sim.Microsecond,
	}
}

// Scalars that multiply or divide an existing sim.Time value are
// factors, not durations.
func okScale(t sim.Time) sim.Time {
	half := t / 2
	return 2*t + half
}

func badOffset(t sim.Time) sim.Time {
	return t + 500 // want `raw constant 500 used as sim\.Time`
}

func badCompare(t sim.Time) bool {
	return t > 100 // want `raw constant 100 used as sim\.Time`
}

func badConversion(n int64) sim.Time {
	return sim.Time(n * 1000) // want `unit-free integer arithmetic`
}

func okConversion(rawNS int64) sim.Time {
	return sim.Time(rawNS) // data-driven value already in clock units
}

func okConversionScaled(ticks int64) sim.Time {
	return sim.Time(ticks) * 100 * sim.Nanosecond
}

func allowedRaw() sim.Time {
	//riflint:allow simtime -- golden test: calibration constant from the paper
	return 1234
}
