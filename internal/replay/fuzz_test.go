package replay

import (
	"strings"
	"testing"

	"repro/internal/nand"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// FuzzReplayCSV parses arbitrary CSV and replays it on a tiny device.
// A trace may fail to parse or to replay — bad lines, pages off the
// device, a full write region — but the replay must return, never
// panic.
func FuzzReplayCSV(f *testing.F) {
	f.Add("0,W,9223372036854775806,4\n")
	f.Add("0,R,9223372036854775806,4\n")
	f.Add("# arrival_us,op,lpn,pages\n0.000,W,0,2\n5.000,R,0,2\n9.000,R,511,1\n")
	f.Add("0,W,3,1\n0,W,3,1\n0,W,3,1\n1,R,3,1\n")
	cfg := ssd.DefaultConfig(ssd.RiF, 1000)
	// 2 channels x 2 dies x 2 planes x 8 blocks x 8 pages = 512 pages.
	cfg.Geometry = nand.Geometry{Channels: 2, DiesPerChan: 2, PlanesPerDie: 2,
		BlocksPerPlane: 8, PagesPerBlock: 8, PageBytes: 16 * 1024}
	f.Fuzz(func(t *testing.T, in string) {
		res, err := Run(trace.NewCSVStream(strings.NewReader(in)), Options{
			Config:      cfg,
			AgeDays:     5,
			MaxRequests: 256,
		})
		if err == nil && (res.Requests < 1 || res.Requests > 256) {
			t.Fatalf("clean replay of %d requests, want 1..256", res.Requests)
		}
	})
}
