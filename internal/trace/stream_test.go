package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/sim"
)

// collect pulls a stream up to io.EOF or its first error, returning
// the requests parsed before it.
func collect(st Stream) ([]Request, error) {
	var out []Request
	for {
		req, err := st.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, req)
	}
}

// drain pulls a stream to EOF, failing the test on a parse error.
func drain(t *testing.T, st Stream) []Request {
	t.Helper()
	out, err := collect(st)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	return out
}

// drainMSR drains an MSR stream over r.
func drainMSR(t *testing.T, r io.Reader, pageBytes, diskFilter int) []Request {
	t.Helper()
	st, err := NewMSRStream(r, pageBytes, diskFilter)
	if err != nil {
		t.Fatal(err)
	}
	return drain(t, st)
}

// expectRequests compares parsed requests with the expected ones.
func expectRequests(t *testing.T, got, want []Request) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d requests, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestCSVStreamMatchesReadCSV pins the incremental parser against the
// requests WriteCSV was given: every field, arrivals at the format's
// nanosecond resolution included.
func TestCSVStreamMatchesReadCSV(t *testing.T) {
	reqs := []Request{
		{At: 0, Op: Read, LPN: 10, Pages: 1},
		{At: 1500, Op: Write, LPN: 20, Pages: 4},
		{At: 99000, Op: Read, LPN: 0, Pages: 2},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	expectRequests(t, drain(t, NewCSVStream(&buf)), reqs)
}

// TestCSVWriterStreams pins incremental emission: per-request Write
// plus Flush produces the identical bytes WriteCSV does.
func TestCSVWriterStreams(t *testing.T) {
	reqs := []Request{
		{At: 100, Op: Read, LPN: 1, Pages: 1},
		{At: 2000, Op: Write, LPN: 2, Pages: 8},
	}
	var whole, streamed bytes.Buffer
	if err := WriteCSV(&whole, reqs); err != nil {
		t.Fatal(err)
	}
	cw := NewCSVWriter(&streamed)
	for _, r := range reqs {
		if err := cw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if whole.String() != streamed.String() {
		t.Fatalf("streamed bytes diverge:\n%q\nvs\n%q", streamed.String(), whole.String())
	}
}

// TestMSRStreamMatchesReadMSR pins the MSR parser against requests
// derived by hand at 4-KiB pages: byte offsets and sizes to page runs,
// filetime ticks (100 ns) rebased to the first kept row, and disk 1's
// row dropped by the disk-0 filter.
func TestMSRStreamMatchesReadMSR(t *testing.T) {
	const msr = `128166372003061629,src1,0,Read,8192,16384,1331
128166372004061629,src1,1,Write,0,4096,900
128166372013061629,src1,0,Write,40960,8192,544
128166372023061629,src1,0,Read,0,4096,100
`
	expectRequests(t, drainMSR(t, strings.NewReader(msr), 4096, 0), []Request{
		{At: 0, Op: Read, LPN: 2, Pages: 4},
		{At: sim.Second, Op: Write, LPN: 10, Pages: 2},
		{At: 2 * sim.Second, Op: Read, LPN: 0, Pages: 1},
	})
}

// TestNewStreamSniffsFormat pins the format auto-detection both ways.
func TestNewStreamSniffsFormat(t *testing.T) {
	csv := "# arrival_us,op,lpn,pages\n0.000,R,5,1\n10.000,W,6,2\n"
	st, err := NewStream(strings.NewReader(csv), 4096, -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.(*CSVStream); !ok {
		t.Fatalf("csv input sniffed as %T", st)
	}
	if got := drain(t, st); len(got) != 2 || got[1].Op != Write {
		t.Fatalf("csv parse through sniffer: %+v", got)
	}

	msr := "128166372003061629,src1,0,Read,8192,16384,1331\n"
	st, err = NewStream(strings.NewReader(msr), 4096, -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.(*MSRStream); !ok {
		t.Fatalf("msr input sniffed as %T", st)
	}
	if got := drain(t, st); len(got) != 1 || got[0].Pages != 4 {
		t.Fatalf("msr parse through sniffer: %+v", got)
	}

	// Empty input is a valid, immediately dry stream.
	st, err = NewStream(strings.NewReader("# comment only\n"), 4096, -1)
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, st); len(got) != 0 {
		t.Fatalf("empty trace yielded %d requests", len(got))
	}
}

// TestCompactorMatchesCompact pins the remap into an 8-page
// footprint: new addresses take the next free run (the last one ending
// exactly at the footprint's end), a repeat keeps its run, a run that
// no longer fits wraps to page 0, and a repeat longer than its first
// run is clipped at the footprint's end. Arrival and op pass through.
func TestCompactorMatchesCompact(t *testing.T) {
	in := []Request{
		{At: 1, Op: Read, LPN: 1 << 40, Pages: 4},
		{At: 2, Op: Write, LPN: 1 << 41, Pages: 2},
		{At: 3, Op: Read, LPN: 1 << 40, Pages: 4},
		{At: 4, Op: Read, LPN: 7, Pages: 2},   // 6+2 = 8: fits
		{At: 5, Op: Write, LPN: 99, Pages: 3}, // 8+3 > 8: wraps
		{At: 6, Op: Read, LPN: 7, Pages: 4},   // 6+4 > 8: clipped
		{At: 7, Op: Read, LPN: 55, Pages: 6},  // 3+6 = 9 > 8: wraps
	}
	want := []Request{
		{At: 1, Op: Read, LPN: 0, Pages: 4},
		{At: 2, Op: Write, LPN: 4, Pages: 2},
		{At: 3, Op: Read, LPN: 0, Pages: 4},
		{At: 4, Op: Read, LPN: 6, Pages: 2},
		{At: 5, Op: Write, LPN: 0, Pages: 3},
		{At: 6, Op: Read, LPN: 6, Pages: 2},
		{At: 7, Op: Read, LPN: 0, Pages: 6},
	}
	c := NewCompactor(8)
	got := make([]Request, len(in))
	for i, r := range in {
		got[i] = c.Apply(r)
	}
	expectRequests(t, got, want)
}
