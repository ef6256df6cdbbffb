// Golden fixture for the obssafe instrument-hygiene checker.
package obssafe

import "repro/internal/obs"

type widget struct {
	reads *obs.Counter
	bad   obs.Counter // want `by-value obs\.Counter field embeds a detached instrument`
}

var detached = obs.Counter{} // want `obs\.Counter constructed directly`

var alsoDetached = &obs.Gauge{} // want `obs\.Gauge constructed directly`

var viaNew = new(obs.Histogram) // want `new\(obs\.Histogram\) constructs a detached instrument`

var byValue obs.Tracer // want `by-value obs\.Tracer declaration creates a detached instrument`

// A nil pointer handle is the sanctioned disabled path.
var okNil *obs.Counter

func wire(reg *obs.Registry) *widget {
	return &widget{reads: reg.Counter("reads_total")}
}

func dupKinds(reg *obs.Registry) {
	_ = reg.Gauge("queue_depth")     // want `instrument name "queue_depth" is registered as both`
	_ = reg.Histogram("queue_depth") // want `instrument name "queue_depth" is registered as both`
}

func dupLookup(reg *obs.Registry) {
	a := reg.Counter("requests_total")
	b := reg.Counter("requests_total") // want `counter "requests_total" already obtained at`
	_, _ = a, b
}

func okDistinct(reg *obs.Registry) {
	_ = reg.Counter("alpha_total")
	_ = reg.Counter("beta_total")
	_ = reg.Histogram("latency_us")
}

func okDynamic(reg *obs.Registry, names []string) {
	for _, n := range names {
		_ = reg.Counter(n) // non-constant names are the caller's problem
	}
}

func allowedShared(reg *obs.Registry) *obs.Counter {
	//riflint:allow dupinstrument -- golden test: intentional shared instrument
	return reg.Counter("requests_total")
}
