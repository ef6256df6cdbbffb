package trace

import (
	"strings"
	"testing"
)

// Fuzz targets for the external-input parsers: they must never panic,
// and every request a stream yields before its first error must be
// structurally valid.

func FuzzReadCSV(f *testing.F) {
	f.Add("100.5,R,7,2\n")
	f.Add("# comment\n\n1,W,0,1\n")
	f.Add("x,y,z\n")
	f.Add("1,R,9223372036854775807,1\n")
	f.Fuzz(func(t *testing.T, in string) {
		reqs, _ := collect(NewCSVStream(strings.NewReader(in)))
		for _, r := range reqs {
			if r.Pages <= 0 || r.LPN < 0 || r.At < 0 {
				t.Fatalf("invalid request accepted: %+v", r)
			}
		}
	})
}

func FuzzReadMSR(f *testing.F) {
	f.Add("128166372003061629,web0,0,Read,1048576,32768,1221\n")
	f.Add("1,h,0,Write,0,1,1\n")
	f.Add(",,,,,\n")
	f.Fuzz(func(t *testing.T, in string) {
		st, err := NewMSRStream(strings.NewReader(in), 16*1024, -1)
		if err != nil {
			t.Fatal(err)
		}
		reqs, _ := collect(st)
		for _, r := range reqs {
			if r.Pages <= 0 || r.LPN < 0 {
				t.Fatalf("invalid request accepted: %+v", r)
			}
		}
	})
}
