package serve

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/resultcache"
)

// FuzzJobSpec feeds arbitrary bytes to the POST /jobs decoder. A
// hostile body must be rejected, never panic the server; and every
// spec it accepts must derive RunParams that validate and mint a
// cache key, the same from any Keyer.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"experiment":"chaos","requests":40,"seed":7}`,
		`{"experiment":"17","requests":200,"workers":4,"full":true}`,
		`{"experiment":"tailsweep","faults":{"transient_sense_rate":0.01,"max_sense_retries":3}}`,
		`{"experiment":"chaos","faults":{"die_dropout_rate":1.5}}`,
		`{"experiment":"chaos","requests":-1}`,
		`{"experiment":"chaos","bogus":1}`,
		`{"experiment":"nope"}`,
		`{}`,
		`[1,2]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, p, err := decodeJobSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted spec %+v derives invalid params: %v", spec, err)
		}
		if p.Experiment != spec.Experiment {
			t.Fatalf("params experiment %q, spec %q", p.Experiment, spec.Experiment)
		}
		if a, b := resultcache.NewKeyer().Key(spec.Experiment, p), resultcache.NewKeyer().Key(spec.Experiment, p); a != b {
			t.Fatalf("spec %+v keys to %s and %s", spec, a, b)
		}
	})
}

// FuzzJournalScan feeds arbitrary bytes to journal replay. A corrupt
// or hostile journal must fail the scan or fold, never panic the
// restarting server; the intact prefix it reports lies inside the
// data, and scanning that prefix alone finds the same records and the
// same prefix, which is what makes truncating to it safe.
func FuzzJournalScan(f *testing.F) {
	accept := `{"op":"accept","id":"job-1","spec":{"experiment":"chaos","requests":40}}` + "\n"
	done := `{"op":"done","id":"job-1","key":"00ff","cells":12}` + "\n"
	for _, seed := range []string{
		accept + done,
		accept + `{"op":"accept","id":"job-2","spe`,
		accept + "not json at all\n" + done,
		accept + "\n  \n" + `{"op":"shed","id":"job-2"}`,
		`{"op":"failed","id":"job-99999999999999999999","error":"x"}` + "\n",
		`{"op":"accept","id":"job-3"}` + "\n" + accept,
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		records, keep, err := scanJournal(data)
		if err != nil {
			return
		}
		if keep < 0 || keep > int64(len(data)) {
			t.Fatalf("keep %d outside [0, %d]", keep, len(data))
		}
		again, keepAgain, err := scanJournal(data[:keep])
		if err != nil {
			t.Fatalf("intact prefix rejected: %v", err)
		}
		if keepAgain != keep || !reflect.DeepEqual(again, records) {
			t.Fatalf("prefix rescan: %d records keep %d, want %d records keep %d",
				len(again), keepAgain, len(records), keep)
		}
		st := foldJournal(records)
		for _, id := range st.order {
			if st.accepted[id] == nil {
				t.Fatalf("accepted job %q has no spec", id)
			}
		}
	})
}
