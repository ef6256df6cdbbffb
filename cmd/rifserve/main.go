// Command rifserve runs the RiF experiment suite as a long-lived HTTP
// service: POST job specs, stream NDJSON progress, scrape Prometheus
// metrics, and fetch run manifests — the serving front-end over the
// same deterministic dispatcher cmd/rifsim drives one-shot.
//
// Usage:
//
//	rifserve -addr :8080 -queue 8 -jobs 1 -spool runs/ -store-dir cache/
//
//	curl -d '{"experiment":"chaos","requests":500,"seed":7}' localhost:8080/jobs
//	curl localhost:8080/metrics
//	curl localhost:8080/runs/job-1
//
// A job spec is byte-for-byte replayable offline:
//
//	rifsim -fig chaos -requests 500 -seed 7
//
// prints exactly the bytes GET /jobs/job-1/report serves.
//
// Completed results are content-addressed: resubmitting a spec that
// canonicalizes to the same configuration is answered from the result
// cache (the terminal event carries "cached": true) and identical
// concurrent submissions share one computation. -cache-size bounds the
// memory cache in bytes; 0 turns it off, and identical concurrent
// submissions still share one computation. -store-dir adds the disk tier:
// completed artifacts persist as content-addressed files (written
// atomically, verified by re-hashing on read) and survive restarts.
// -journal enables the write-ahead job journal: accepted specs are
// journaled before admission, completions after caching, and a
// restarted server replays the journal — completed jobs reappear with
// their exact bytes, incomplete jobs re-enqueue and recompute to the
// same bytes. Grid cells from all running jobs shard across one
// work-stealing scheduler sized by -cell-workers; results are
// byte-identical for every worker count.
//
// SIGTERM drains gracefully: in-flight jobs run to completion and are
// journaled/cached, queued-but-unstarted jobs end with a terminal
// "shed" event, and the journal is fsynced before exit. SIGINT stops
// hard: in-flight jobs are cancelled through the fleet stop hook
// (running grid cells finish) and their manifests are flushed to the
// spool marked "partial": true. Either way the HTTP listener drains
// before the process exits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/faults"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	queue := flag.Int("queue", serve.DefaultQueueDepth,
		"pending-job queue depth; a full queue rejects submissions with 429 + Retry-After")
	jobs := flag.Int("jobs", 1, "jobs run concurrently (grid cells from all jobs shard across the shared -cell-workers scheduler)")
	spool := flag.String("spool", "", "directory receiving one manifest collection JSON per finished job (empty disables)")
	instance := flag.String("instance", "", "value of the instance label added to every /metrics sample")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for the HTTP listener")
	cacheSize := flag.Int64("cache-size", serve.DefaultCacheBytes,
		"memory result cache budget in bytes; repeat submissions are answered from cached artifacts (0 turns the memory cache off; identical concurrent submissions still share one computation)")
	cellWorkers := flag.Int("cell-workers", 0,
		"workers in the shared work-stealing cell scheduler (0 = GOMAXPROCS); results are byte-identical for every value")
	storeDir := flag.String("store-dir", "",
		"directory of the durable result store: completed artifacts persist as content-addressed files and survive restarts (empty disables)")
	journalPath := flag.String("journal", "",
		"write-ahead job journal path; replayed on restart (empty defaults to <store-dir>/journal.ndjson when -store-dir is set)")
	storeFaults := flag.String("store-faults", "",
		`storage fault injection config as JSON, e.g. '{"write_error_rate":0.1,"torn_write_rate":0.05}' (see faults.StorageConfig; empty disables)`)
	storeFaultSeed := flag.Uint64("store-fault-seed", 1, "seed for the storage-fault injector streams")
	flag.Parse()

	if *queue < 1 {
		fmt.Fprintln(os.Stderr, "rifserve: -queue must be >= 1")
		os.Exit(2)
	}
	if *jobs < 1 {
		fmt.Fprintln(os.Stderr, "rifserve: -jobs must be >= 1")
		os.Exit(2)
	}
	if *cellWorkers < 0 {
		fmt.Fprintln(os.Stderr, "rifserve: -cell-workers must be >= 0")
		os.Exit(2)
	}
	if *spool != "" {
		if err := os.MkdirAll(*spool, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "rifserve:", err)
			os.Exit(1)
		}
	}
	var storageFaults faults.StorageConfig
	if *storeFaults != "" {
		if err := json.Unmarshal([]byte(*storeFaults), &storageFaults); err != nil {
			fmt.Fprintln(os.Stderr, "rifserve: -store-faults:", err)
			os.Exit(2)
		}
		if err := storageFaults.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "rifserve:", err)
			os.Exit(2)
		}
	}

	var labels map[string]string
	if *instance != "" {
		labels = map[string]string{"instance": *instance}
	}
	srv := serve.New(serve.Config{
		QueueDepth:       *queue,
		JobWorkers:       *jobs,
		SpoolDir:         *spool,
		Labels:           labels,
		CacheBytes:       *cacheSize,
		CellWorkers:      *cellWorkers,
		StoreDir:         *storeDir,
		JournalPath:      *journalPath,
		StorageFaults:    storageFaults,
		StorageFaultSeed: *storeFaultSeed,
		//riflint:allow wallclock -- host-side stall service for injected slow I/O, never feeds the sim
		StoreSleep: time.Sleep,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	srv.Start()

	// Listen before installing the signal handler so the printed address
	// is the bound one (":0" resolves to a real port) — the crash-smoke
	// harness parses it.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rifserve:", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := <-sigc
		// A second signal force-kills.
		signal.Stop(sigc)
		if sig == syscall.SIGTERM {
			// Graceful drain: in-flight jobs finish and are journaled and
			// cached, queued jobs end "shed", the journal fsyncs closed.
			fmt.Fprintf(os.Stderr, "rifserve: %v: draining (in-flight jobs run to completion)\n", sig)
			srv.Drain()
		} else {
			// Hard stop: cancel jobs first so progress streams reach
			// their terminal events, then drain the listener.
			fmt.Fprintf(os.Stderr, "rifserve: %v: stopping (in-flight jobs flush partial manifests)\n", sig)
			srv.Stop()
		}
		//riflint:allow wallclock -- host-side HTTP drain deadline, never feeds the sim
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "rifserve: shutdown:", err)
		}
	}()

	fmt.Fprintf(os.Stderr, "rifserve: listening on %s\n", ln.Addr())
	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "rifserve:", err)
		os.Exit(1)
	}
	<-done
}
