package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestTableIIMatchesPaper(t *testing.T) {
	want := map[string][2]float64{
		"Ali2": {0.27, 0.50}, "Ali46": {0.34, 0.75}, "Ali81": {0.43, 0.74},
		"Ali121": {0.92, 0.70}, "Ali124": {0.96, 0.79}, "Ali295": {0.42, 0.73},
		"Sys0": {0.70, 0.82}, "Sys1": {0.72, 0.83},
	}
	specs := TableII()
	if len(specs) != 8 {
		t.Fatalf("%d workloads, want 8", len(specs))
	}
	for _, s := range specs {
		w, ok := want[s.Name]
		if !ok {
			t.Fatalf("unexpected workload %q", s.Name)
		}
		if s.ReadRatio != w[0] || s.ColdReadRatio != w[1] {
			t.Fatalf("%s: ratios (%v,%v), want (%v,%v)", s.Name, s.ReadRatio, s.ColdReadRatio, w[0], w[1])
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("Ali124")
	if err != nil || s.Name != "Ali124" {
		t.Fatalf("ByName: %v %v", s, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
	if len(Names()) != 8 {
		t.Fatal("Names() wrong length")
	}
}

func TestSpecValidation(t *testing.T) {
	base := tableIISpec("x", 0.5, 0.5)
	bad := []func(*Spec){
		func(s *Spec) { s.ReadRatio = 1.5 },
		func(s *Spec) { s.ColdReadRatio = -0.1 },
		func(s *Spec) { s.FootprintPages = 0 },
		func(s *Spec) { s.HotFraction = 1 },
		func(s *Spec) { s.MeanReqPages = 0 },
		func(s *Spec) { s.MinAgeDays = 40 },
	}
	for i, mut := range bad {
		s := base
		mut(&s)
		if s.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestGeneratorReproducesRatios(t *testing.T) {
	for _, spec := range TableII() {
		g, err := NewGenerator(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		read, cold := MeasuredMix(g, 50000)
		if math.Abs(read-spec.ReadRatio) > 0.02 {
			t.Errorf("%s: measured read ratio %v, spec %v", spec.Name, read, spec.ReadRatio)
		}
		if math.Abs(cold-spec.ColdReadRatio) > 0.02 {
			t.Errorf("%s: measured cold read ratio %v, spec %v", spec.Name, cold, spec.ColdReadRatio)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	spec, _ := ByName("Sys0")
	a, _ := NewGenerator(spec, 42)
	b, _ := NewGenerator(spec, 42)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed generators diverged")
		}
	}
	c, _ := NewGenerator(spec, 43)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same > 50 {
		t.Fatalf("different seeds matched %d/1000 draws", same)
	}
}

func TestWritesNeverTouchColdRegion(t *testing.T) {
	// The cold region must stay un-updated or cold reads would not be
	// cold (the paper's definition).
	spec, _ := ByName("Ali2") // most write-heavy
	g, _ := NewGenerator(spec, 7)
	for i := 0; i < 50000; i++ {
		r := g.Next()
		if r.Op == Write && r.LPN < g.coldPages {
			t.Fatalf("write at lpn %d inside cold region [0,%d)", r.LPN, g.coldPages)
		}
		if r.LPN < 0 || r.LPN+int64(r.Pages) > spec.FootprintPages {
			t.Fatalf("request [%d,+%d) outside footprint", r.LPN, r.Pages)
		}
		if r.Pages < 1 || r.Pages > 16 {
			t.Fatalf("request pages = %d", r.Pages)
		}
	}
}

func TestRequestSizeMean(t *testing.T) {
	spec, _ := ByName("Ali124")
	g, _ := NewGenerator(spec, 3)
	total := 0
	const n = 50000
	for i := 0; i < n; i++ {
		total += g.Next().Pages
	}
	mean := float64(total) / n
	if mean < spec.MeanReqPages*0.6 || mean > spec.MeanReqPages*1.4 {
		t.Fatalf("mean request size %v pages, spec %v", mean, spec.MeanReqPages)
	}
}

func TestInitialAges(t *testing.T) {
	spec, _ := ByName("Sys1")
	g, _ := NewGenerator(spec, 1)
	// Cold pages: ages within [min, max], varied.
	seen := map[int]bool{}
	for lpn := int64(0); lpn < 1000; lpn++ {
		age := g.InitialAgeDays(lpn)
		if age < spec.MinAgeDays || age > spec.MaxAgeDays {
			t.Fatalf("cold age %v outside [%v,%v]", age, spec.MinAgeDays, spec.MaxAgeDays)
		}
		seen[int(age)] = true
	}
	if len(seen) < 10 {
		t.Fatalf("cold ages too uniform: %d distinct integer days", len(seen))
	}
	// Hot pages: fresh.
	if age := g.InitialAgeDays(g.coldPages + 5); age > 0.1 {
		t.Fatalf("hot age %v, want ~0", age)
	}
	// Deterministic.
	if g.InitialAgeDays(123) != g.InitialAgeDays(123) {
		t.Fatal("ages not deterministic")
	}
	if mean := g.AgeProfile(1000); mean < 10 || mean > 20 {
		t.Fatalf("mean cold age %v, want ~15.5", mean)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	spec, _ := ByName("Ali81")
	g, _ := NewGenerator(spec, 9)
	var reqs []Request
	for i := 0; i < 500; i++ {
		reqs = append(reqs, g.Next())
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	back := drain(t, NewCSVStream(&buf))
	if len(back) != len(reqs) {
		t.Fatalf("%d requests after round trip, want %d", len(back), len(reqs))
	}
	for i := range reqs {
		if back[i].Op != reqs[i].Op || back[i].LPN != reqs[i].LPN || back[i].Pages != reqs[i].Pages {
			t.Fatalf("request %d mismatch: %+v vs %+v", i, back[i], reqs[i])
		}
	}
}

func TestCSVRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"1,R,2",     // too few fields
		"x,R,2,3",   // bad time
		"1,Q,2,3",   // bad op
		"1,R,-2,3",  // negative lpn
		"1,R,2,0",   // zero pages
		"-1,R,2,3",  // negative time
		"1,R,two,3", // non-numeric lpn
		"1,R,2,3,4", // too many fields
	} {
		if _, err := collect(NewCSVStream(strings.NewReader(in))); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestCSVSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n100.5,R,7,2\n# trailing\n"
	reqs := drain(t, NewCSVStream(strings.NewReader(in)))
	if len(reqs) != 1 || reqs[0].LPN != 7 || reqs[0].Pages != 2 {
		t.Fatalf("parsed %+v", reqs)
	}
}

func TestReplayerWrapsAround(t *testing.T) {
	reqs := []Request{
		{Op: Read, LPN: 1, Pages: 1},
		{Op: Write, LPN: 2, Pages: 2},
	}
	r := NewReplayer(reqs, 12)
	for i := 0; i < 5; i++ {
		got := r.Next()
		want := reqs[i%2]
		if got.LPN != want.LPN {
			t.Fatalf("replay %d: %+v", i, got)
		}
	}
	if r.InitialAgeDays(999) != 12 {
		t.Fatal("replayer age wrong")
	}
}

func TestReplayerEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty replayer accepted")
		}
	}()
	NewReplayer(nil, 0)
}
