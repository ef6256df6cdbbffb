package serve

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// submitSpec validates spec and runs it through submit, as
// handleSubmit does after decoding. Safe to call from any goroutine.
func submitSpec(t *testing.T, srv *Server, spec JobSpec) (*Job, bool) {
	p, err := spec.Params()
	if err != nil {
		t.Error(err)
		return nil, false
	}
	return srv.submit(spec, p)
}

// journalOps reads the journal at path and groups its operations by
// job ID, in append order.
func journalOps(t *testing.T, path string) map[string][]string {
	t.Helper()
	records, _, _, err := loadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string][]string{}
	for _, rec := range records {
		ops[rec.ID] = append(ops[rec.ID], rec.Op)
	}
	return ops
}

// waitTerminal blocks until j publishes its terminal event, as a
// client following the job's stream does.
func waitTerminal(j *Job) {
	for next := 0; ; {
		events, more := j.eventsSince(next)
		next += len(events)
		if len(events) > 0 && State(events[len(events)-1].Event).Terminal() {
			return
		}
		<-more
	}
}

// TestAdmissionNeverStrandsFollower pins one-step admission: with the
// one queue slot taken, a submission of spec B must be refused before
// it becomes B's single-flight leader, so an identical submission that
// arrives while the first one would be writing its accept record
// cannot attach to a job that is then dropped. The journal lock is
// held to keep that window open deterministically. Every submission
// that was answered ok must be listed in /jobs and terminal after
// Stop, and nothing may be journaled for a job no caller holds.
func TestAdmissionNeverStrandsFollower(t *testing.T) {
	dir := t.TempDir()
	srv := New(Config{QueueDepth: 1, JobWorkers: 1, StoreDir: dir, Logf: t.Logf})
	// Deliberately not started: job A keeps the one queue slot.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	specA := JobSpec{Experiment: "tenants", Requests: 40}
	specB := JobSpec{Experiment: "tenants", Requests: 40, Seed: 2}
	var held []*Job
	a, ok := submitSpec(t, srv, specA)
	if !ok {
		t.Fatal("spec A refused by an empty queue")
	}
	held = append(held, a)
	pB, err := specB.Params()
	if err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	keyB := srv.keyer.Key(specB.Experiment, pB)
	srv.mu.Unlock()
	leadingB := func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		_, ok := srv.inflight[keyB]
		return ok
	}

	type result struct {
		j  *Job
		ok bool
	}
	srv.journal.mu.Lock()
	first := make(chan result, 1)
	go func() {
		j, ok := submitSpec(t, srv, specB)
		first <- result{j, ok}
	}()
	// Wait until the first submission of B has returned or leads B.
	var r1 result
	returned := false
	for !returned && !leadingB() {
		select {
		case r1 = <-first:
			returned = true
		default:
			runtime.Gosched()
		}
	}
	j2, ok2 := submitSpec(t, srv, specB)
	srv.journal.mu.Unlock()
	if !returned {
		r1 = <-first
	}
	for _, r := range []result{r1, {j2, ok2}} {
		if r.ok {
			held = append(held, r.j)
		}
	}
	srv.Stop()

	_, body := getBody(t, ts.URL+"/jobs")
	var listed []Status
	if err := json.Unmarshal([]byte(body), &listed); err != nil {
		t.Fatal(err)
	}
	states := map[string]State{}
	for _, st := range listed {
		states[st.ID] = st.State
	}
	holders := map[string]bool{}
	for _, j := range held {
		holders[j.ID] = true
		st, ok := states[j.ID]
		if !ok {
			t.Errorf("submission answered ok with %s, which /jobs does not list", j.ID)
			continue
		}
		if !st.Terminal() {
			t.Errorf("%s is %q after Stop, want a terminal state", j.ID, st)
		}
	}
	for id, ops := range journalOps(t, filepath.Join(dir, "journal.ndjson")) {
		if !holders[id] {
			t.Errorf("journal records %v for %s, which no caller holds", ops, id)
		}
	}
}

// TestAdmissionConcurrentSubmitCancel races submissions, cancellations
// and resubmissions of a small spec set against a one- and two-deep
// queue with the store on, then drains. Each client, after a job is
// accepted, cancels it, follows it to its end or moves on; after a 429
// it waits for its previous job before retrying. Every job ID handed out must
// be registered and end in exactly one terminal event, a computed job
// must be journaled as accept plus the record of that terminal state
// (a store hit as nothing), the journal may name no other job, and
// the single-flight index and the queue must be empty.
func TestAdmissionConcurrentSubmitCancel(t *testing.T) {
	specs := make([]JobSpec, 5)
	for i := range specs {
		specs[i] = JobSpec{Experiment: "tenants", Requests: 40, Seed: uint64(i + 1)}
	}
	for _, depth := range []int{1, 2} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			dir := t.TempDir()
			srv := New(Config{QueueDepth: depth, JobWorkers: 1, StoreDir: dir, Logf: t.Logf})
			srv.Start()
			defer srv.Stop()

			var mu sync.Mutex
			handed := map[string]*Job{}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewPCG(uint64(depth), uint64(g)))
					var last *Job
					for i := 0; i < 10; i++ {
						j, ok := submitSpec(t, srv, specs[rng.IntN(len(specs))])
						if !ok {
							if last != nil {
								waitTerminal(last)
							}
							runtime.Gosched()
							continue
						}
						mu.Lock()
						handed[j.ID] = j
						mu.Unlock()
						last = j
						switch rng.IntN(3) {
						case 0:
							j.Cancel()
						case 1:
							waitTerminal(j)
						}
					}
				}(g)
			}
			wg.Wait()
			srv.Drain()

			ops := journalOps(t, filepath.Join(dir, "journal.ndjson"))
			for id, j := range handed {
				if got, ok := srv.job(id); !ok || got != j {
					t.Errorf("%s was handed out but is not the registered job", id)
				}
				events, _ := j.eventsSince(0)
				terminals := 0
				for _, e := range events {
					if State(e.Event).Terminal() {
						terminals++
					}
				}
				st, _ := j.State()
				if terminals != 1 || !st.Terminal() {
					t.Errorf("%s ended %q with %d terminal events, want one", id, st, terminals)
				}
				want := []string{opAccept, string(st)}
				if j.fromCache {
					want = nil
				}
				if fmt.Sprint(ops[id]) != fmt.Sprint(want) {
					t.Errorf("%s (%s, cached=%v) journaled %v, want %v", id, st, j.fromCache, ops[id], want)
				}
			}
			for id, o := range ops {
				if handed[id] == nil {
					t.Errorf("journal records %v for %s, which no caller holds", o, id)
				}
			}
			srv.mu.Lock()
			inflight, backlog := len(srv.inflight), srv.backlog
			srv.mu.Unlock()
			if inflight != 0 || backlog != 0 || len(srv.queue) != 0 {
				t.Errorf("after Drain: inflight=%d backlog=%d queued=%d, want all 0",
					inflight, backlog, len(srv.queue))
			}
		})
	}
}
