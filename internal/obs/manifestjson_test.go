package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// referenceRuns is the shape encoding/json renders for a Collection.
type referenceRuns struct {
	Partial bool       `json:"partial,omitempty"`
	Runs    []Manifest `json:"runs"`
}

// referenceJSON renders runs through encoding/json as WriteJSON does:
// the oracle the hand-written encoder is compared against.
func referenceJSON(partial bool, runs []Manifest) ([]byte, error) {
	var b bytes.Buffer
	err := WriteJSON(&b, referenceRuns{partial, runs})
	return b.Bytes(), err
}

// encodeRuns renders runs with the hand-written encoder.
func encodeRuns(partial bool, runs []Manifest, indent bool) ([]byte, error) {
	e := manifestEncoder{indent: indent}
	err := e.collection(partial, runs)
	return e.b, err
}

// checkAgainstReference compares both of the encoder's layouts with
// encoding/json's: the same bytes, or an error from both.
func checkAgainstReference(t *testing.T, partial bool, runs []Manifest) {
	t.Helper()
	want, wantErr := referenceJSON(partial, runs)
	got, err := encodeRuns(partial, runs, true)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("indented: encoder error %v, encoding/json error %v", err, wantErr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("indented bytes differ:\n got %q\nwant %q", got, want)
	}
	want, wantErr = json.Marshal(referenceRuns{partial, runs})
	got, err = encodeRuns(partial, runs, false)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("compact: encoder error %v, encoding/json error %v", err, wantErr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("compact bytes differ:\n got %q\nwant %q", got, want)
	}
}

// chaosConfig stands in for ssd.Config, which this package cannot
// import: nested structs, a struct with JSON tags, and floats that
// encoding/json writes in e-notation.
type chaosConfig struct {
	Geometry struct {
		Channels, DiesPerChan, PlanesPerDie, BlocksPerPlane, PagesPerBlock, PageBytes int
	}
	Timing struct {
		TR, TProg, TErase, TDMAPage, TPred, THostPage int64
	}
	Scheme, PECycles      int
	Seed                  uint64
	SentinelExtraReadProb float64
	Faults                struct {
		Transient float64 `json:"transient_sense_rate"`
		Stuck     float64 `json:"stuck_block_rate"`
		Dropout   float64 `json:"die_dropout_rate"`
	}
	RiFSecondCheck bool
	NANDParams     struct {
		StateGap, SigmaFresh, DisturbShift, DisturbWiden, ChunkVar4K float64
	}
}

// chaosRuns builds a collection shaped like one chaos-study job's: 12
// manifests, each with 83 counters, 21 gauges, two histograms and a
// config of about 1 KB.
func chaosRuns() *Collection {
	c := NewCollection()
	for cell := 0; cell < 12; cell++ {
		r := NewRegistry()
		for i := 0; i < 35; i++ {
			r.Counter(fmt.Sprintf("ssd_counter_%02d_total", i)).Add(int64(cell*1000 + i*37))
		}
		for ch := 0; ch < 8; ch++ {
			for _, n := range []string{"idle", "cor", "uncor", "write", "eccwait", "total"} {
				r.Counter(fmt.Sprintf("ssd_ch%d_%s_ns", ch, n)).Add(int64(ch*123457 + cell))
			}
			r.Gauge(fmt.Sprintf("ssd_ch%d_ecc_buf_highwater", ch)).SetMax(2)
			r.Gauge(fmt.Sprintf("ssd_ch%d_backlog_highwater", ch)).SetMax(int64(ch))
		}
		for i := 0; i < 5; i++ {
			r.Gauge(fmt.Sprintf("ssd_gauge_%d", i)).SetMax(int64(i * 1000))
		}
		for _, name := range []string{"ssd_read_latency_us", "ecc_decode_latency_us"} {
			h := r.Histogram(name)
			for i := 1; i <= 40; i++ {
				h.Observe(float64(i*i) * 13.7)
			}
		}
		var cfg chaosConfig
		cfg.Geometry.Channels, cfg.Geometry.DiesPerChan, cfg.Geometry.PlanesPerDie = 8, 4, 4
		cfg.Geometry.BlocksPerPlane, cfg.Geometry.PagesPerBlock, cfg.Geometry.PageBytes = 256, 128, 16384
		cfg.Timing.TR, cfg.Timing.TProg, cfg.Timing.TErase = 40000, 400000, 3500000
		cfg.Scheme, cfg.PECycles, cfg.Seed = cell%3, 2000, 7
		cfg.SentinelExtraReadProb = 2.0 / 3
		cfg.Faults.Transient, cfg.Faults.Stuck, cfg.Faults.Dropout = 0.001*float64(cell), 0.00025, 1.25e-7
		cfg.NANDParams.StateGap, cfg.NANDParams.DisturbShift, cfg.NANDParams.DisturbWiden = 600, 8e-05, 1e-06
		c.Add(Manifest{
			Tool: "rifserve", Experiment: "chaos", Scheme: fmt.Sprintf("scheme-%d", cell%3),
			Workload: "Ali124", PECycles: 2000, Seed: 7, Requests: 40, Config: cfg,
			SimTimeNS: int64(1e7) + int64(cell), WallTimeS: 0.000412 * float64(cell+1),
			BandwidthM: 812.5 + float64(cell), Metrics: r.Snapshot(), Cell: cell,
		})
	}
	return c
}

// TestCollectionJSONMatchesEncodingJSON is the oracle table: every
// case renders byte for byte as encoding/json renders it, or fails
// where encoding/json fails.
func TestCollectionJSONMatchesEncodingJSON(t *testing.T) {
	negZero := math.Copysign(0, -1)
	var nilConfig *chaosConfig
	hist := HistogramSnapshot{Count: 3, Mean: 1e-7, Min: 5e-324, Max: 1e21, P50: negZero, P90: 1e-6, P99: 999999999999999999999, P999: 0.1}
	full := sampleManifest("RiFSSD", 2000)
	full.Config = chaosRuns().Runs()[0].Config
	for _, tc := range []struct {
		name    string
		partial bool
		runs    []Manifest
	}{
		{"nil runs", false, nil},
		{"empty runs", false, []Manifest{}},
		{"partial nil runs", true, nil},
		{"partial", true, []Manifest{full}},
		{"zero manifest", false, []Manifest{{}}},
		{"empty snapshot maps", false, []Manifest{{Metrics: Snapshot{Counters: map[string]int64{}, Gauges: map[string]int64{}, Histograms: map[string]HistogramSnapshot{}}}}},
		{"e-notation floats", false, []Manifest{
			{WallTimeS: 1e-7, RateIOPS: 5e-324, BandwidthM: 1e21},
			{WallTimeS: 1e-6, RateIOPS: 1e20, BandwidthM: 123456789.125},
			{WallTimeS: math.MaxFloat64, RateIOPS: -1e-300, BandwidthM: math.SmallestNonzeroFloat64},
		}},
		{"negative zero", false, []Manifest{{WallTimeS: negZero, RateIOPS: negZero, BandwidthM: negZero}}},
		{"large integers", false, []Manifest{
			{Seed: math.MaxUint64, PECycles: math.MinInt, SimTimeNS: math.MaxInt64, Requests: -1},
			{Seed: 1<<63 + 1, PECycles: math.MaxInt, SimTimeNS: math.MinInt64},
		}},
		{"escaped strings", false, []Manifest{{
			Tool: "<script>&amp;</script>", Experiment: "line\u2028para\u2029end", Scheme: "bad\xffutf8\xc3",
			Workload: "ctl\x00\x01\x1f\b\f\n\r\t\"\\\x7f é 😀",
			Metrics: Snapshot{
				Counters:   map[string]int64{"a<b": 1, "a&b": 2, "\xfe": 3, "z\u2029": 4, "": 5},
				Gauges:     map[string]int64{"g\"q": -7},
				Histograms: map[string]HistogramSnapshot{"h>": hist},
			},
		}}},
		{"configs", false, []Manifest{
			{Config: nil},
			{Config: nilConfig},
			{Config: map[string]any{"b": []any{1.5, "x<", nil, map[string]any{}}, "a": []any{}, "c": map[string]any{"d": true}}},
			{Config: "plain"},
			{Config: 42},
			{Config: full.Config},
		}},
		{"histograms", false, []Manifest{{Metrics: Snapshot{Histograms: map[string]HistogramSnapshot{"b": hist, "a": {}}}}}},
		{"counter keys change at equal length", false, keySetRuns("counters", "a c", "b d", "b d")},
		{"counter keys subset then superset", false, keySetRuns("counters", "b", "a b c", "b")},
		{"gauge keys change at equal length", false, keySetRuns("gauges", "a c", "b d", "b d")},
		{"gauge keys subset then superset", false, keySetRuns("gauges", "b", "a b c", "b")},
		{"histogram keys change at equal length", false, keySetRuns("histograms", "a c", "b d", "b d")},
		{"histogram keys subset then superset", false, keySetRuns("histograms", "b", "a b c", "b")},
		{"nan wall time", false, []Manifest{{WallTimeS: math.NaN()}}},
		{"inf rate", false, []Manifest{{RateIOPS: math.Inf(1)}}},
		{"-inf histogram", false, []Manifest{{Metrics: Snapshot{Histograms: map[string]HistogramSnapshot{"h": {Max: math.Inf(-1)}}}}}},
		{"nan in config", false, []Manifest{{Config: map[string]any{"x": math.NaN()}}}},
		{"unsupported config", false, []Manifest{{Config: make(chan int)}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkAgainstReference(t, tc.partial, tc.runs)
		})
	}
}

// keySetRuns makes one manifest per key set, each set space-separated,
// with one instrument kind holding those keys: consecutive manifests
// whose key sets differ, so an encoder that reuses the last sorted key
// order when it should sort again writes the wrong keys.
func keySetRuns(kind string, sets ...string) []Manifest {
	runs := make([]Manifest, len(sets))
	for i, set := range sets {
		ints := map[string]int64{}
		hists := map[string]HistogramSnapshot{}
		for j, k := range strings.Fields(set) {
			ints[k] = int64(10*i + j + 1)
			hists[k] = HistogramSnapshot{Count: int64(10*i + j + 1)}
		}
		switch kind {
		case "counters":
			runs[i].Metrics.Counters = ints
		case "gauges":
			runs[i].Metrics.Gauges = ints
		case "histograms":
			runs[i].Metrics.Histograms = hists
		}
	}
	return runs
}

// TestCollectionJSONCoversEveryField sets every field of a Manifest,
// down through its Snapshot's maps and their values, to a distinct
// non-zero value by reflection: a field added to any of them but not to
// the encoder fails here.
func TestCollectionJSONCoversEveryField(t *testing.T) {
	n := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		n++
		switch v.Kind() {
		case reflect.String:
			v.SetString(fmt.Sprint("s", n))
		case reflect.Int, reflect.Int64:
			v.SetInt(int64(n))
		case reflect.Uint64:
			v.SetUint(uint64(n))
		case reflect.Float64:
			v.SetFloat(float64(n) + 0.25)
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Interface:
			v.Set(reflect.ValueOf(map[string]any{"k": n}))
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.Map:
			m := reflect.MakeMap(v.Type())
			elem := reflect.New(v.Type().Elem()).Elem()
			fill(elem)
			m.SetMapIndex(reflect.ValueOf(fmt.Sprint("k", n)), elem)
			v.Set(m)
		default:
			t.Fatalf("no filler for a %s field", v.Type())
		}
	}
	var m Manifest
	fill(reflect.ValueOf(&m).Elem())
	checkAgainstReference(t, true, []Manifest{m})
}

// TestCollectionJSONMethods pins the Collection entry points to the
// encoding/json rendering of Runs: JSON and WriteJSON indented and
// exactly sized, MarshalJSON compact, and a partial empty collection
// as {"partial": true, "runs": null}.
func TestCollectionJSONMethods(t *testing.T) {
	for _, c := range []*Collection{NewCollection(), chaosRuns()} {
		c.SetPartial(c.Len() == 0)
		want, err := referenceJSON(c.Partial(), c.Runs())
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("JSON:\n got %q\nwant %q", got, want)
		}
		if len(got) != cap(got) {
			t.Fatalf("JSON returned %d bytes with capacity %d, want no slack", len(got), cap(got))
		}
		var w bytes.Buffer
		if err := c.WriteJSON(&w); err != nil || !bytes.Equal(w.Bytes(), want) {
			t.Fatalf("WriteJSON (err %v):\n got %q\nwant %q", err, w.Bytes(), want)
		}
		compact, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		wantCompact, _ := json.Marshal(referenceRuns{c.Partial(), c.Runs()})
		if !bytes.Equal(compact, wantCompact) {
			t.Fatalf("MarshalJSON:\n got %q\nwant %q", compact, wantCompact)
		}
	}
	c := NewCollection()
	c.SetPartial(true)
	got, _ := c.JSON()
	if want := "{\n \"partial\": true,\n \"runs\": null\n}\n"; string(got) != want {
		t.Fatalf("empty partial collection: %q, want %q", got, want)
	}
}

// raceEnabled is set when the race detector is on (race_test.go).
var raceEnabled bool

// TestCollectionJSONAllocationBudget pins what rendering a chaos job's
// collection costs: a copy of the runs, the buffer, the exact-size
// result, the key scratch, and one json.Marshal per config.
// encoding/json takes thousands (it is logged beside).
func TestCollectionJSONAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	const budget = 30
	c := chaosRuns()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.JSON(); err != nil {
			t.Fatal(err)
		}
	})
	ref := testing.AllocsPerRun(5, func() {
		if _, err := referenceJSON(c.Partial(), c.Runs()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("12-manifest chaos collection: %.0f allocations (encoding/json: %.0f)", allocs, ref)
	if allocs > budget {
		t.Fatalf("rendering a 12-manifest collection makes %.0f allocations, want at most %d", allocs, budget)
	}
}

// FuzzCollectionJSON renders arbitrary pairs of manifests both ways.
// The config is the fuzzed JSON text decoded when it parses, the raw
// string when it does not; the fuzzed strings name the instruments, so
// the pair's key sets are equal, nested or apart.
func FuzzCollectionJSON(f *testing.F) {
	f.Add("rifsim", "ssd_page_reads_total", `{"a":[1,2.5e-7,null],"b":{"c":"<&>"}}`, uint64(7), 2000, int64(1234), 0.25, 1e-7, 812.5, false)
	f.Add("", "", "", uint64(math.MaxUint64), -1, int64(math.MinInt64), math.Inf(1), 1e21, -0.0, true)
	f.Add("a\u2028\xff", "k\x00\"\\", "[]", uint64(0), 0, int64(0), 5e-324, math.NaN(), 1e-6, false)
	// Distinct strings: the two manifests' counter maps are as long as
	// each other with different keys.
	f.Add("ssd_b_total", "ssd_a_total", "ssd_c_total", uint64(1), 1000, int64(5), 0.5, 0.25, 1.0, false)
	f.Fuzz(func(t *testing.T, name, key, config string, seed uint64, pe int, n int64, x, y, z float64, partial bool) {
		var cfg any = config
		if json.Valid([]byte(config)) {
			if err := json.Unmarshal([]byte(config), &cfg); err != nil {
				t.Fatal(err)
			}
		}
		m := Manifest{
			Tool: name, Experiment: key, Scheme: config, Workload: name + key,
			PECycles: pe, Seed: seed, Requests: int(n), RateIOPS: x, Config: cfg,
			SimTimeNS: n, WallTimeS: y, BandwidthM: z,
			Metrics: Snapshot{
				Counters:   map[string]int64{key: n, name: int64(pe)},
				Gauges:     map[string]int64{config: -n},
				Histograms: map[string]HistogramSnapshot{key: {Count: n, Mean: x, Min: y, Max: z, P50: x * y, P90: y * z, P99: x + z, P999: -x}},
			},
		}
		// The second manifest's counters and histograms swap key for
		// config: equal in number to the first's, different in name.
		next := Manifest{Tool: key, Metrics: Snapshot{
			Counters:   map[string]int64{config: n, name: int64(pe)},
			Gauges:     map[string]int64{name: n},
			Histograms: map[string]HistogramSnapshot{config: {Count: n}},
		}}
		checkAgainstReference(t, partial, []Manifest{m, next})
	})
}

// BenchmarkCollectionJSON renders a chaos job's 12-manifest collection
// as a finished rifserve job stores it.
func BenchmarkCollectionJSON(b *testing.B) {
	c := chaosRuns()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.JSON(); err != nil {
			b.Fatal(err)
		}
	}
}
