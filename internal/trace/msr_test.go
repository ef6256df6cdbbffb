package trace

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

const msrSample = `128166372003061629,web0,0,Read,1048576,32768,1221
128166372013061629,web0,0,Write,2097152,16384,800
128166372023061629,web0,1,Read,0,4096,90
128166372033061629,web0,0,Read,1064960,16384,500
`

func TestReadMSRBasics(t *testing.T) {
	reqs := drainMSR(t, strings.NewReader(msrSample), 16*1024, 0)
	if len(reqs) != 3 {
		t.Fatalf("%d requests (disk filter), want 3", len(reqs))
	}
	// First request: offset 1 MiB = page 64, 32 KiB = 2 pages, t=0.
	r := reqs[0]
	if r.Op != Read || r.LPN != 64 || r.Pages != 2 || r.At != 0 {
		t.Fatalf("first request %+v", r)
	}
	// Second: write at 2 MiB = page 128, 1 page, 1 s later
	// (1e7 filetime ticks = 1 s).
	w := reqs[1]
	if w.Op != Write || w.LPN != 128 || w.Pages != 1 {
		t.Fatalf("second request %+v", w)
	}
	if w.At != sim.Second {
		t.Fatalf("second arrival %v, want 1s", w.At)
	}
}

func TestReadMSRAllDisks(t *testing.T) {
	reqs := drainMSR(t, strings.NewReader(msrSample), 16*1024, -1)
	if len(reqs) != 4 {
		t.Fatalf("%d requests without filter", len(reqs))
	}
}

func TestReadMSRPartialPages(t *testing.T) {
	// A 4-KiB read not aligned to 16-KiB pages still touches one page.
	in := "100,web,0,Read,1000,4096,1\n"
	reqs := drainMSR(t, strings.NewReader(in), 16*1024, -1)
	if reqs[0].Pages != 1 || reqs[0].LPN != 0 {
		t.Fatalf("%+v", reqs[0])
	}
	// A request straddling a page boundary touches two.
	in = "100,web,0,Read,16000,1000,1\n"
	reqs = drainMSR(t, strings.NewReader(in), 16*1024, -1)
	if reqs[0].Pages != 2 {
		t.Fatalf("straddling request pages = %d", reqs[0].Pages)
	}
}

func TestReadMSRRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"x,web,0,Read,0,4096,1",  // bad timestamp
		"1,web,z,Read,0,4096,1",  // bad disk
		"1,web,0,Frob,0,4096,1",  // bad type
		"1,web,0,Read,-5,4096,1", // negative offset
		"1,web,0,Read,0,0,1",     // zero size
		"1,web,0,Read,0",         // too few fields
	} {
		st, err := NewMSRStream(strings.NewReader(in), 16*1024, -1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := collect(st); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
	if _, err := NewMSRStream(strings.NewReader(""), 0, -1); err == nil {
		t.Error("accepted zero page size")
	}
}

func TestCompactRemapsDense(t *testing.T) {
	reqs := []Request{
		{Op: Read, LPN: 1 << 40, Pages: 4},
		{Op: Read, LPN: 1 << 50, Pages: 2},
		{Op: Read, LPN: 1 << 40, Pages: 4}, // repeat: same mapping
	}
	c := NewCompactor(1000)
	out := make([]Request, len(reqs))
	for i, r := range reqs {
		out[i] = c.Apply(r)
	}
	if out[0].LPN != 0 || out[1].LPN != 4 {
		t.Fatalf("remap: %+v", out)
	}
	if out[2].LPN != out[0].LPN {
		t.Fatal("repeated address mapped differently")
	}
	for _, r := range out {
		if r.LPN+int64(r.Pages) > 1000 {
			t.Fatalf("request %+v outside footprint", r)
		}
	}
}

func TestCompactNoopWithoutFootprint(t *testing.T) {
	r := Request{Op: Read, LPN: 12345, Pages: 1}
	if out := NewCompactor(0).Apply(r); out != r {
		t.Fatal("compact modified stream without footprint")
	}
}
