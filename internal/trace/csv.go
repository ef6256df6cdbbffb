package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// CSVWriter streams requests in the simple text format, one per line:
//
//	<arrival_us>,<R|W>,<lpn>,<pages>
//
// so synthesized workloads can be archived and replayed, and real
// block traces can be converted into it. Memory is constant in the
// trace length; call Flush once at the end.
type CSVWriter struct {
	bw     *bufio.Writer
	header bool
}

// NewCSVWriter wraps w for streaming emission.
func NewCSVWriter(w io.Writer) *CSVWriter {
	return &CSVWriter{bw: bufio.NewWriter(w)}
}

// Write emits one request (the header line precedes the first).
func (c *CSVWriter) Write(r Request) error {
	if !c.header {
		c.header = true
		if _, err := fmt.Fprintln(c.bw, "# arrival_us,op,lpn,pages"); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(c.bw, "%.3f,%s,%d,%d\n",
		r.At.Microseconds(), r.Op, r.LPN, r.Pages)
	return err
}

// Flush drains the buffered output.
func (c *CSVWriter) Flush() error { return c.bw.Flush() }

// WriteCSV emits a recorded request slice through a CSVWriter (the
// streaming path for callers that never materialize a slice).
func WriteCSV(w io.Writer, reqs []Request) error {
	cw := NewCSVWriter(w)
	for _, r := range reqs {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	if !cw.header {
		// An empty trace still gets its header so the file round-trips.
		if _, err := fmt.Fprintln(cw.bw, "# arrival_us,op,lpn,pages"); err != nil {
			return err
		}
	}
	return cw.Flush()
}

// lineScanner is the shared incremental line reader of the trace
// parsers: it skips blanks and '#' comments and tracks line numbers
// for error messages. Memory is one line buffer regardless of trace
// length.
type lineScanner struct {
	sc   *bufio.Scanner
	line int
}

func newLineScanner(r io.Reader) *lineScanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	return &lineScanner{sc: sc}
}

// next returns the next non-blank, non-comment line, or io.EOF.
func (l *lineScanner) next() (string, error) {
	for l.sc.Scan() {
		l.line++
		text := strings.TrimSpace(l.sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		return text, nil
	}
	if err := l.sc.Err(); err != nil {
		return "", err
	}
	return "", io.EOF
}

// CSVStream incrementally parses the WriteCSV format: each Next call
// reads one line, so arbitrarily long traces replay in constant
// memory (no whole-trace slice).
type CSVStream struct {
	ls *lineScanner
}

// NewCSVStream wraps r for incremental parsing.
func NewCSVStream(r io.Reader) *CSVStream {
	return &CSVStream{ls: newLineScanner(r)}
}

// Next returns the next request, or io.EOF at the end of the stream.
func (c *CSVStream) Next() (Request, error) {
	text, err := c.ls.next()
	if err != nil {
		return Request{}, err
	}
	return parseCSVLine(text, c.ls.line)
}

func parseCSVLine(text string, line int) (Request, error) {
	parts := strings.Split(text, ",")
	if len(parts) != 4 {
		return Request{}, fmt.Errorf("trace: line %d: want 4 fields, got %d", line, len(parts))
	}
	us, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	// The arrival must convert to a sim.Time: NaN, negative and
	// clock-overflowing values are rejected.
	if err != nil || !(us >= 0 && us*float64(sim.Microsecond) < float64(sim.MaxTime)) {
		return Request{}, fmt.Errorf("trace: line %d: bad arrival %q", line, parts[0])
	}
	var op Op
	switch strings.TrimSpace(parts[1]) {
	case "R", "r":
		op = Read
	case "W", "w":
		op = Write
	default:
		return Request{}, fmt.Errorf("trace: line %d: bad op %q", line, parts[1])
	}
	lpn, err := strconv.ParseInt(strings.TrimSpace(parts[2]), 10, 64)
	if err != nil || lpn < 0 {
		return Request{}, fmt.Errorf("trace: line %d: bad lpn %q", line, parts[2])
	}
	pages, err := strconv.Atoi(strings.TrimSpace(parts[3]))
	if err != nil || pages <= 0 {
		return Request{}, fmt.Errorf("trace: line %d: bad pages %q", line, parts[3])
	}
	return Request{
		At:    sim.Time(us * float64(sim.Microsecond)),
		Op:    op,
		LPN:   lpn,
		Pages: pages,
	}, nil
}

// Replayer adapts a recorded request slice to the generator
// interface: Next returns requests in order and wraps around, so a
// short trace can drive an arbitrarily long closed-loop run.
type Replayer struct {
	reqs []Request
	next int
	// AgeDays is the initial retention age assigned to every logical
	// page (replayed traces carry no retention metadata).
	AgeDays float64
}

// NewReplayer wraps recorded requests. It panics on an empty slice:
// an empty trace cannot drive a run.
func NewReplayer(reqs []Request, ageDays float64) *Replayer {
	if len(reqs) == 0 {
		panic("trace: replaying empty trace")
	}
	return &Replayer{reqs: reqs, AgeDays: ageDays}
}

// Next returns the next recorded request, wrapping at the end.
func (r *Replayer) Next() Request {
	req := r.reqs[r.next]
	r.next = (r.next + 1) % len(r.reqs)
	return req
}

// InitialAgeDays reports the configured uniform initial age.
func (r *Replayer) InitialAgeDays(int64) float64 { return r.AgeDays }
