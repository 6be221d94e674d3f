# Development entry points. `make check` is the full local gate — the same
# set of steps CI runs (.github/workflows/ci.yml).

GO ?= go

.PHONY: build test race lint lint-fix lint-bench fuzz bench bench-overlap bench-smoke obs critpath serve-demo serve-smoke docs check clean

build: ## compile everything
	$(GO) build ./...

test: ## unit tests
	$(GO) test ./...

race: ## unit tests under the race detector
	$(GO) test -race ./...

lint: ## go vet + the repo's own analyzers, memoized in .mlstar-lint-cache.json
	$(GO) run ./cmd/mlstar-lint -stats ./...

lint-fix: ## apply SuggestedFixes in place, then assert a second pass finds nothing left (idempotency)
	$(GO) run ./cmd/mlstar-lint -fix ./...
	$(GO) run ./cmd/mlstar-lint -fix ./... | tee /dev/stderr | grep -q '^mlstar-lint: applied 0 fix(es)'

lint-bench: ## cold vs warm lint-suite wall time -> BENCH_6.json
	@rm -f .mlstar-lint-cache.json
	( $(GO) run ./cmd/mlstar-lint -vet=false -bench cold ./... && \
	  $(GO) run ./cmd/mlstar-lint -vet=false -bench warm ./... ) \
		| tee /dev/stderr | $(GO) run ./cmd/mlstar-benchjson -out BENCH_6.json

fuzz: ## short fuzz runs: libsvm reader + sparse encoding + telemetry event round-trips + causal graph pipeline
	$(GO) test -fuzz=FuzzReadLibSVM -fuzztime=10s ./internal/data
	$(GO) test -fuzz=FuzzRoundTrip -fuzztime=10s ./internal/sparse
	$(GO) test -fuzz=FuzzEventRoundTrip -fuzztime=10s ./internal/obs
	$(GO) test -fuzz=FuzzCausalGraph -fuzztime=10s ./internal/causal

bench: ## wall-clock benchmarks (sparse/pipeline/overlap/obs/causal on/off, slab kernels, CSR layout) -> BENCH_9.json
	$(GO) test -bench 'BenchmarkWallClock' -run '^$$' -benchmem ./internal/bench \
		| tee /dev/stderr | $(GO) run ./cmd/mlstar-benchjson -out BENCH_9.json

bench-overlap: ## overlap=off/on pair only; asserts the sim_speedup_overlap table materializes
	$(GO) test -bench 'BenchmarkWallClockOverlap' -run '^$$' -benchmem ./internal/bench \
		| tee /dev/stderr | $(GO) run ./cmd/mlstar-benchjson -out BENCH_overlap.json
	grep -q 'sim_speedup_overlap' BENCH_overlap.json
	@rm -f BENCH_overlap.json
	@echo "bench-overlap: sim_speedup_overlap recorded"

bench-smoke: ## one-iteration benchmark pass + bit-identity tests + CSR and des zero-alloc guards + des layer and fork/join microbenchmarks
	$(GO) test -bench 'BenchmarkWallClock' -benchtime=1x -run '^$$' -benchmem ./internal/bench
	$(GO) test -bench 'BenchmarkWait|BenchmarkQueueHandoff|BenchmarkGetUntil|BenchmarkForkJoin' -benchtime=1x -run 'TestDESZeroAllocs' -benchmem -v ./internal/des
	$(GO) test -run 'TestKernelAllocReduction|TestSparse|TestObs|TestPipeline|TestCSRBatchZeroAllocs|TestCSRKernel|TestCritPath|TestWhatIf' -v ./internal/bench

obs: ## replay the committed sample event logs and diff against the golden reports
	$(GO) run ./cmd/mlstar-obs -in internal/bench/testdata/obs_events_mllib.jsonl > obs_report_mllib.txt
	diff -u internal/bench/testdata/obs_report_mllib.golden obs_report_mllib.txt
	$(GO) run ./cmd/mlstar-obs -in internal/bench/testdata/obs_events_mllibstar.jsonl > obs_report_mllibstar.txt
	diff -u internal/bench/testdata/obs_report_mllibstar.golden obs_report_mllibstar.txt
	@rm -f obs_report_mllib.txt obs_report_mllibstar.txt
	@echo "obs: replayed reports match the goldens"

critpath: ## replay the committed causal logs and diff the critical-path + what-if reports against the goldens
	$(GO) run ./cmd/mlstar-obs -in internal/bench/testdata/obs_events_mllib.jsonl -critpath > critpath_mllib.txt
	diff -u internal/bench/testdata/critpath_mllib.golden critpath_mllib.txt
	$(GO) run ./cmd/mlstar-obs -in internal/bench/testdata/obs_events_mllibstar.jsonl -critpath > critpath_mllibstar.txt
	diff -u internal/bench/testdata/critpath_mllibstar.golden critpath_mllibstar.txt
	$(GO) run ./cmd/mlstar-obs -in internal/bench/testdata/obs_events_mllib.jsonl -whatif > whatif_mllib.txt
	diff -u internal/bench/testdata/whatif_mllib.golden whatif_mllib.txt
	$(GO) run ./cmd/mlstar-obs -in internal/bench/testdata/obs_events_mllibstar.jsonl -whatif > whatif_mllibstar.txt
	diff -u internal/bench/testdata/whatif_mllibstar.golden whatif_mllibstar.txt
	@rm -f critpath_mllib.txt critpath_mllibstar.txt whatif_mllib.txt whatif_mllibstar.txt
	@echo "critpath: replayed reports match the goldens"

serve-demo: ## serve the committed checkpoints with a mid-traffic hot swap; the metrics file must match the golden byte-for-byte
	$(GO) run ./cmd/mlstar-serve -model testdata/serve/ckpt_a.json -swap-model testdata/serve/ckpt_b.json \
		-swap-at 0.05 -shards 4 -clients 8 -requests 50 -metrics-out serve_metrics.json
	diff -u testdata/serve/metrics.golden serve_metrics.json
	@rm -f serve_metrics.json
	@echo "serve: metrics match the golden"

serve-smoke: ## serving-tier unit tests (shard invariance, hot swap, checkpoint parity) + the golden-metrics demo
	$(GO) test ./internal/serve
	$(GO) test -run 'TestCheckpointServesBitIdentically|TestLazyL2CheckpointServes' .
	$(MAKE) serve-demo

docs: ## check ARCHITECTURE/README/EXPERIMENTS: intra-repo links + quoted commands
	$(GO) test -run 'TestDocs' -v ./...

check: build lint race fuzz serve-demo critpath docs ## everything CI runs

clean:
	$(GO) clean ./...
	rm -f .mlstar-lint-cache.json
