package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// MSRStream incrementally parses block traces in the MSR-Cambridge
// CSV format, the most common public format for production storage
// traces:
//
//	Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//
// Timestamp is in Windows filetime units (100 ns ticks), Offset and
// Size are bytes, Type is "Read" or "Write". Requests are converted
// to pageBytes logical pages with timestamps rebased so the first
// request arrives at zero; requests on other disks than diskFilter
// are skipped (use -1 for all disks). Each Next call reads one line,
// so arbitrarily long traces replay in constant memory.
type MSRStream struct {
	ls         *lineScanner
	pageBytes  int
	diskFilter int
	base       int64
}

// NewMSRStream wraps r for incremental MSR parsing.
func NewMSRStream(r io.Reader, pageBytes int, diskFilter int) (*MSRStream, error) {
	if pageBytes <= 0 {
		return nil, fmt.Errorf("trace: page bytes %d", pageBytes)
	}
	return &MSRStream{ls: newLineScanner(r), pageBytes: pageBytes, diskFilter: diskFilter, base: -1}, nil
}

// Next returns the next request, or io.EOF at the end of the stream.
func (m *MSRStream) Next() (Request, error) {
	for {
		text, err := m.ls.next()
		if err != nil {
			return Request{}, err
		}
		req, ok, err := m.parseLine(text)
		if err != nil {
			return Request{}, err
		}
		if ok {
			return req, nil
		}
		// Filtered disk: keep scanning.
	}
}

func (m *MSRStream) parseLine(text string) (Request, bool, error) {
	line := m.ls.line
	parts := strings.Split(text, ",")
	if len(parts) < 6 {
		return Request{}, false, fmt.Errorf("trace: msr line %d: %d fields", line, len(parts))
	}
	ts, err := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
	if err != nil || ts < 0 {
		return Request{}, false, fmt.Errorf("trace: msr line %d: bad timestamp %q", line, parts[0])
	}
	disk, err := strconv.Atoi(strings.TrimSpace(parts[2]))
	if err != nil {
		return Request{}, false, fmt.Errorf("trace: msr line %d: bad disk %q", line, parts[2])
	}
	if m.diskFilter >= 0 && disk != m.diskFilter {
		return Request{}, false, nil
	}
	var op Op
	switch strings.ToLower(strings.TrimSpace(parts[3])) {
	case "read", "r":
		op = Read
	case "write", "w":
		op = Write
	default:
		return Request{}, false, fmt.Errorf("trace: msr line %d: bad type %q", line, parts[3])
	}
	off, err := strconv.ParseInt(strings.TrimSpace(parts[4]), 10, 64)
	if err != nil || off < 0 {
		return Request{}, false, fmt.Errorf("trace: msr line %d: bad offset %q", line, parts[4])
	}
	size, err := strconv.ParseInt(strings.TrimSpace(parts[5]), 10, 64)
	if err != nil || size <= 0 {
		return Request{}, false, fmt.Errorf("trace: msr line %d: bad size %q", line, parts[5])
	}
	if m.base < 0 {
		m.base = ts
	}
	firstPage := off / int64(m.pageBytes)
	lastPage := (off + size - 1) / int64(m.pageBytes)
	return Request{
		// Filetime ticks are 100 ns.
		At:    timeFromTicks(ts - m.base),
		Op:    op,
		LPN:   firstPage,
		Pages: int(lastPage-firstPage) + 1,
	}, true, nil
}

// timeFromTicks converts 100-ns filetime ticks to simulation time.
func timeFromTicks(ticks int64) sim.Time {
	return sim.Time(ticks) * 100 * sim.Nanosecond
}

// Compactor rewrites a request stream's logical addresses into a
// dense space of at most footprintPages while preserving the access
// pattern (same original address maps to the same compact pages) —
// real traces address terabytes, while experiments size the simulated
// footprint. Memory is proportional to the trace's unique address
// count (its working set), not its length.
type Compactor struct {
	footprint int64
	remap     map[int64]int64
	next      int64
}

// NewCompactor returns a streaming compactor; footprintPages <= 0
// passes requests through unchanged.
func NewCompactor(footprintPages int64) *Compactor {
	return &Compactor{footprint: footprintPages, remap: make(map[int64]int64)}
}

// Apply remaps one request.
func (c *Compactor) Apply(r Request) Request {
	if c.footprint <= 0 {
		return r
	}
	// Remap each page run start; keep runs contiguous by mapping the
	// first page and extending (wrapping within footprint).
	mapped, ok := c.remap[r.LPN]
	if !ok {
		if c.next+int64(r.Pages) > c.footprint {
			c.next = 0
		}
		mapped = c.next
		c.remap[r.LPN] = mapped
		c.next += int64(r.Pages)
	}
	out := r
	out.LPN = mapped
	if mapped+int64(r.Pages) > c.footprint {
		out.Pages = int(c.footprint - mapped)
		if out.Pages < 1 {
			out.Pages = 1
			out.LPN = 0
		}
	}
	return out
}

// Stream is the incremental request source the open-loop replay
// engine consumes: Next returns requests in trace order and io.EOF
// when the stream ends. CSVStream and MSRStream implement it.
type Stream interface {
	Next() (Request, error)
}

// NewStream sniffs the trace format of r — the native 4-field CSV or
// the 7-field MSR-Cambridge layout — from its first data line and
// returns the matching incremental parser. pageBytes sizes the MSR
// byte-to-page conversion; diskFilter restricts MSR traces to one
// disk (-1 keeps all).
func NewStream(r io.Reader, pageBytes, diskFilter int) (Stream, error) {
	br := bufio.NewReader(r)
	line, err := peekDataLine(br)
	if err != nil {
		// An empty trace is a valid (immediately dry) CSV stream; real
		// read errors surface on the first Next.
		return NewCSVStream(br), nil
	}
	parts := strings.Split(line, ",")
	if len(parts) >= 6 {
		kind := strings.ToLower(strings.TrimSpace(parts[3]))
		if kind == "read" || kind == "write" || kind == "r" || kind == "w" {
			return NewMSRStream(br, pageBytes, diskFilter)
		}
	}
	return NewCSVStream(br), nil
}

// peekDataLine returns the first non-blank, non-comment line of br
// without consuming it.
func peekDataLine(br *bufio.Reader) (string, error) {
	for peekAt := 0; ; {
		buf, err := br.Peek(1 << 16)
		if len(buf) == 0 {
			if err == nil {
				err = io.EOF
			}
			return "", err
		}
		for peekAt < len(buf) {
			nl := strings.IndexByte(string(buf[peekAt:]), '\n')
			var line string
			if nl < 0 {
				if err == nil && len(buf) == 1<<16 {
					break // line longer than the peek window: re-peek impossible, treat rest as line
				}
				line = string(buf[peekAt:])
				peekAt = len(buf)
			} else {
				line = string(buf[peekAt : peekAt+nl])
				peekAt += nl + 1
			}
			line = strings.TrimSpace(line)
			if line != "" && !strings.HasPrefix(line, "#") {
				return line, nil
			}
			if nl < 0 {
				return "", io.EOF
			}
		}
		return "", fmt.Errorf("trace: cannot sniff format: first data line exceeds %d bytes", 1<<16)
	}
}
