# One entry point for the checks that gate a change, so they run
# identically on a laptop and in CI (.github/workflows/ci.yml calls
# these exact targets).

GO ?= go

# External tools are version-pinned for reproducible CI. `go run
# pkg@version` compiles them on demand (cached by the go build cache)
# without adding anything to go.mod.
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.3

.PHONY: all build test loc prof prof-ldpc race shuffle golden serve-e2e serve-load-smoke crash-smoke bench bench-smoke chaos-smoke agesweep-smoke replay-smoke examples-smoke fuzz-smoke lint fmt-check vet riflint staticcheck govulncheck

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# loc prints ROADMAP aim 2's size measure: non-test Go lines, perfbench,
# the benchmark build tree and test fixtures excluded. A change reports
# it before and after with this target.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './perfbench/*' \
		-not -path './.bench_build/*' -not -path '*/testdata/*' | xargs cat | wc -l

# prof profiles `rifsim -fig 17 -workers 1`, the run ROADMAP's
# profile figures are taken from: CPU and heap profiles land in
# $(PROFDIR) (gitignored), and it prints the top 15 functions by CPU
# (flat) and the top 15 sites by bytes (alloc_space) and by objects
# (alloc_objects) allocated over the run. Both profiles are sampled,
# and the run takes about a second, so the figures are estimates.
# It then profiles a short cell's fixed cost: the chaos grid at 40
# requests a cell, rifserve's cold job, with its manifests written so
# the registry and manifest path runs, and prints that run's top 15
# sites by bytes. That run allocates about 3 MB, so it samples every
# 4 KB (GODEBUG memprofilerate) rather than every 512 KB.
# Not a CI step.
PROFDIR ?= .prof

prof:
	@mkdir -p $(PROFDIR)
	$(GO) build -o $(PROFDIR)/rifsim ./cmd/rifsim
	$(PROFDIR)/rifsim -fig 17 -workers 1 -cpuprofile $(PROFDIR)/cpu.prof -memprofile $(PROFDIR)/mem.prof > /dev/null
	$(GO) tool pprof -top -nodecount=15 $(PROFDIR)/rifsim $(PROFDIR)/cpu.prof
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=15 $(PROFDIR)/rifsim $(PROFDIR)/mem.prof
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=15 $(PROFDIR)/rifsim $(PROFDIR)/mem.prof
	GODEBUG=memprofilerate=4096 $(PROFDIR)/rifsim -fig chaos -requests 40 -workers 1 -metrics $(PROFDIR)/chaos-runs.json -memprofile $(PROFDIR)/chaos-mem.prof > /dev/null
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=15 $(PROFDIR)/rifsim $(PROFDIR)/chaos-mem.prof

# prof-ldpc profiles `rifsim -fig soft -workers 1`, the slowest row
# and one that runs the min-sum decoder on real bits: it builds rifsim
# into $(PROFDIR), writes the CPU profile there and prints the top 15
# functions by CPU (flat). The decoder's assembly kernels show under
# their own names (rowVec, packVec, expandVec, seedVec). Not a CI step.
prof-ldpc:
	@mkdir -p $(PROFDIR)
	$(GO) build -o $(PROFDIR)/rifsim ./cmd/rifsim
	$(PROFDIR)/rifsim -fig soft -workers 1 -cpuprofile $(PROFDIR)/ldpc-cpu.prof > /dev/null
	$(GO) tool pprof -top -nodecount=15 $(PROFDIR)/rifsim $(PROFDIR)/ldpc-cpu.prof

# shuffle reruns the whole suite twice in randomized test order:
# it catches tests coupled through package state or relying on
# earlier tests' side effects. CI runs this on every change.
shuffle:
	$(GO) test -shuffle=on -count=2 ./...

# golden rewrites the report corpus in internal/core/testdata/golden
# (every row of the experiment table, the code-level and
# characterization figures included) and the device signatures in internal/ssd/testdata/signature.golden from the current
# code. `make test`, `make race` and `make shuffle` check both. Run this
# only in a change that means to move a report or a signature — a model
# or report format change, never a refactor or speedup — and say in
# that change which reports and signature lines moved and why.
golden:
	$(GO) test -count=1 -run '^TestGolden' ./internal/core/ -update
	$(GO) test -count=1 -run '^TestSignatureGolden$$' ./internal/ssd/ -update

# serve-e2e drives the rifserve service end to end under the race
# detector: submit over HTTP, stream NDJSON progress, verify report
# byte-identity with the dispatcher, scrape /metrics with hostile
# labels, and shut down gracefully mid-job (exactly one manifest
# flushed marked partial). It then repeats the admission tests ten
# times, so the race between a full queue and an identical submission
# is pinned over many interleavings, not one. CI runs this on every
# change.
serve-e2e:
	$(GO) test -race -count=1 ./internal/serve/ ./cmd/rifserve/
	$(GO) test -race -count=10 -run 'TestAdmission' ./internal/serve/

# serve-load-smoke drives rifload against an in-process cached server
# under the race detector: a mixed hit/miss workload with -verify on,
# asserting zero errors, zero byte-identity violations, and that hot
# specs actually land in the result cache. CI runs this on every
# change.
serve-load-smoke:
	$(GO) test -race -count=1 -run TestLoadSmoke -v ./cmd/rifload/

# crash-smoke is the end-to-end crash drill under the race detector: a
# real rifserve process is SIGKILLed mid-grid, a second process on the
# same store and journal replays the WAL, reruns the interrupted job
# under its original ID with byte-identical /report and /runs, and
# serves a resubmission warm from the recovered store. CI runs this on
# every change.
crash-smoke:
	CRASH_SMOKE=1 $(GO) test -race -count=1 -run TestCrashRecoverySmoke -v ./cmd/rifserve/

bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# bench-smoke compiles and runs every benchmark exactly once: it
# catches benchmarks broken by refactors without paying for stable
# timings. CI runs this on every change.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem -run='^$$' ./...

# chaos-smoke drives the fault-injection sweep end to end under the
# race detector at a tiny sizing: every fault class fires across the
# rate x scheme grid and every cell must degrade gracefully (no
# panic, no race). CI runs this on every change.
chaos-smoke:
	$(GO) run -race ./cmd/rifsim -fig chaos -requests 120 -workers 2 -metrics /dev/null

# agesweep-smoke fast-forwards the simulated drive-year end to end
# under the race detector at a tiny sizing: read disturb accumulates,
# read-reclaim fires, and per-block state carries across every epoch
# seeding a fresh device. CI runs this on every change.
agesweep-smoke:
	$(GO) run -race ./cmd/rifsim -fig agesweep -requests 120 -workers 2 -metrics /dev/null

# replay-smoke streams a 1M-request open-loop replay under the race
# detector and asserts the heap high-water mark stays within 4 MiB of
# its early baseline: the flat-memory pin behind "10M-request replays
# in minutes". CI runs this on every change.
replay-smoke:
	REPLAY_SMOKE_REQUESTS=1000000 $(GO) test -race -count=1 -run TestReplaySmokeHeapFlat -v ./internal/replay/

# examples-smoke runs every directory under examples/ (today datapath,
# the functional chip with its on-die engine on real bits, and
# quickstart, the SSD's closed-loop host; each takes under a second),
# so an example no step runs cannot be added. CI runs this on every
# change.
examples-smoke:
	@set -e; for d in examples/*/; do echo "$(GO) run ./$$d"; $(GO) run ./$$d; done

# fuzz-smoke runs every fuzz target for FUZZTIME, one per go test
# invocation (go test fuzzes a single target at a time): the replay
# path end to end on a tiny device, where a hostile trace must fail the
# run and never panic the simulator, the CSV, MSR and alist parsers,
# the result store's entry decoder, rifserve's two untrusted inputs
# (the POSTed job spec and the job journal replayed at restart), and
# the min-sum decoder on arbitrary finite LLRs against its edge-list
# reference, the RBER enclosure on arbitrary finite read conditions
# against the exact RBER, and the manifest encoder on arbitrary
# manifests against encoding/json. A crasher lands in the package's
# testdata/fuzz. CI runs this on every change.
FUZZTIME ?= 10s

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReplayCSV$$' -fuzztime $(FUZZTIME) ./internal/replay/
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzReadMSR$$' -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzReadAlistStats$$' -fuzztime $(FUZZTIME) ./internal/ldpc/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEntry$$' -fuzztime $(FUZZTIME) ./internal/resultcache/
	$(GO) test -run '^$$' -fuzz '^FuzzJobSpec$$' -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzJournalScan$$' -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzMinSumDecodeSoft$$' -fuzztime $(FUZZTIME) ./internal/ldpc/
	$(GO) test -run '^$$' -fuzz '^FuzzConditionBounds$$' -fuzztime $(FUZZTIME) ./internal/nand/
	$(GO) test -run '^$$' -fuzz '^FuzzCollectionJSON$$' -fuzztime $(FUZZTIME) ./internal/obs/

# lint is the network-free gate: formatting, go vet, and the
# repository's own invariant suite (internal/analysis via
# cmd/riflint: simdeterminism, simtime, obssafe, seedflow, hotpath,
# errorflow, ctxflow). ./... includes internal/analysis and
# cmd/riflint themselves, so the suite is self-hosting. It must pass
# before every commit.
lint: fmt-check vet riflint

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# vet also runs for arm64, where the decoder builds only its portable
# kernels, so the non-amd64 build cannot rot; on amd64 its asmdecl
# check holds the assembly kernels' frames to their Go declarations.
# perfbench is its own module, so ./... never compiles it: vetting it
# here fails a change that deletes an export the benchmark uses.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	cd perfbench && $(GO) vet .

riflint:
	$(GO) run ./cmd/riflint ./...

# staticcheck and govulncheck need network access the first time (to
# fetch the pinned tool); CI runs them as separate blocking steps.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

govulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...
