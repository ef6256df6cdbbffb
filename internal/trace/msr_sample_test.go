package trace

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/sim"
)

// TestMSRSampleParses pins the checked-in MSR-Cambridge sample: the
// canonical 7-field layout (filetime ticks, byte offsets/sizes, mixed
// disks, comments and blank lines) parses to exactly the requests its
// rows describe. The same file is what cmd/rifsim's -replay e2e test
// feeds the open-loop engine, so a format drift fails here first with
// a parsing-level message.
func TestMSRSampleParses(t *testing.T) {
	data, err := os.ReadFile("testdata/msr-sample.csv")
	if err != nil {
		t.Fatal(err)
	}
	reqs := drainMSR(t, bytes.NewReader(data), 4096, -1)
	if len(reqs) != 24 {
		t.Fatalf("parsed %d requests, want 24", len(reqs))
	}

	// Timestamps rebase to zero and stay monotone at the trace's
	// 150000-tick (15 ms) cadence.
	if reqs[0].At != 0 {
		t.Errorf("first arrival %v, want 0 (rebased)", reqs[0].At)
	}
	if want := 15 * sim.Millisecond; reqs[1].At != want {
		t.Errorf("second arrival %v, want %v", reqs[1].At, want)
	}
	for i := 1; i < len(reqs); i++ {
		if reqs[i].At <= reqs[i-1].At {
			t.Fatalf("arrivals not monotone at row %d: %v then %v", i, reqs[i-1].At, reqs[i].At)
		}
	}

	// Byte-to-page conversion: offset 0 size 4096 is one page; offset
	// 512 size 4096 straddles a page boundary and spans two.
	if reqs[0].Op != Read || reqs[0].LPN != 0 || reqs[0].Pages != 1 {
		t.Errorf("row 1 = %+v, want aligned 1-page read of LPN 0", reqs[0])
	}
	if reqs[1].LPN != 0 || reqs[1].Pages != 2 {
		t.Errorf("row 2 = %+v, want unaligned read spanning pages 0-1", reqs[1])
	}

	reads := 0
	for _, r := range reqs {
		if r.Op == Read {
			reads++
		}
	}
	if reads != 17 || len(reqs)-reads != 7 {
		t.Errorf("op mix %d reads / %d writes, want 17/7", reads, len(reqs)-reads)
	}

	// Disk filtering keeps only the requested spindle.
	for filter, want := range map[int]int{0: 18, 1: 6} {
		if got := drainMSR(t, bytes.NewReader(data), 4096, filter); len(got) != want {
			t.Errorf("disk %d: %d requests, want %d", filter, len(got), want)
		}
	}
}

// TestMSRSampleSniffedByNewStream pins format auto-detection: the
// sample must be recognized as MSR (not native CSV) and stream the
// same requests as an MSR parser opened directly — the path `rifsim
// -replay` actually takes.
func TestMSRSampleSniffedByNewStream(t *testing.T) {
	data, err := os.ReadFile("testdata/msr-sample.csv")
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStream(bytes.NewReader(data), 4096, -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.(*MSRStream); !ok {
		t.Fatalf("sniffed as %T, want *MSRStream", st)
	}
	expectRequests(t, drain(t, st), drainMSR(t, bytes.NewReader(data), 4096, -1))
}
