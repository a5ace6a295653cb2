# Development and CI entry points. `make ci` is the full gate: vet, a gofmt
# check, the fitslint invariant suite, build, plain tests, race-enabled
# tests, a short fuzz smoke on each fuzz target (go's -fuzz flag accepts a
# single package, hence one invocation per target), the precision gate, a
# run of every examples/ program, and a benchmark smoke that gates the
# median ns/op, B/op and allocs/op of five 20-iteration runs against the
# committed BENCH_pipeline.json before replacing it. bench-check vets and
# tests the bench/ module, which is its own Go module and so outside `./...`.

GO      ?= go
FUZZTIME ?= 10s

.PHONY: all build vet fmt-check lint test race bench bench-smoke bench-check fuzz-smoke serve-smoke precision-smoke examples-smoke netlines ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when any Go file is not gofmt-formatted; `gofmt -l .` lists them.
fmt-check:
	test -z "$$(gofmt -l .)"

# fitslint machine-checks the repo's determinism, concurrency, context and
# no-test-only-export invariants (see DESIGN.md "Static analysis &
# invariants"). It also loads the bench/ module, whose references count for
# the testonly check, and fails if that module does not load. Kept separate
# from vet so the two gates stay independently runnable.
lint:
	$(GO) run ./cmd/fitslint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The pipeline benchmarks (root package) and the paper's tables and
# figures (internal/eval), which print the tables EXPERIMENTS.md records.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem . ./internal/eval

# Five runs of the end-to-end pipeline benchmarks (cold, cache-warm and
# diff), converted to JSON and gated against the committed baseline:
# benchjson folds each benchmark's five lines into per-metric medians, and
# -compare exits nonzero when the median ns/op, B/op or allocs/op grew beyond
# the tolerance (warn-only across different CPUs); only then does the fresh
# report replace BENCH_pipeline.json. The cold benchmarks run twenty
# iterations a sample; the sub-millisecond cached ones (BENCH_CACHED) run in
# a second `go test` at two hundred, so one GC pause cannot swing their
# median. benchjson itself refuses single-iteration samples, so the archive
# can't silently degrade to -benchtime=1x noise.
BENCH_CACHED := ^BenchmarkPipeline_(SingleFirmwareCached|CorpusXScanCached|DiffWarm)$$
bench-smoke:
	{ $(GO) test -run='^$$' -bench='^BenchmarkPipeline_' -skip='$(BENCH_CACHED)' -benchtime=20x -count=5 -benchmem . && \
	  $(GO) test -run='^$$' -bench='$(BENCH_CACHED)' -benchtime=200x -count=5 -benchmem . ; } \
		| $(GO) run ./cmd/benchjson > BENCH_new.json
	$(GO) run ./cmd/benchjson -compare BENCH_pipeline.json BENCH_new.json -tolerance 25
	mv BENCH_new.json BENCH_pipeline.json
	@cat BENCH_pipeline.json

# bench/ has its own go.mod (replace fits => ../), so `go build ./...` and
# `go test ./...` never compile it against the current server and client
# APIs; this target does, before the benchmark itself would trip over a
# break.
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# Precision scoreboard: scores the alias + path-feasibility passes against
# the baseline engine on planted ground truth across the three synth
# families and fails unless the full configuration is strictly more precise
# at no loss of recall (see eval.RunPrecision / eval.CheckPrecision).
precision-smoke:
	$(GO) run ./cmd/precision

# Runs every examples/ program to completion; the first non-zero exit fails
# the target. Their output goes to /dev/null: they print tables, not checks.
examples-smoke:
	@for d in examples/*/; do echo "$$d"; $(GO) run ./$$d > /dev/null || exit 1; done

# End-to-end smoke of the fitsd service: boot the daemon, submit a
# generated firmware image twice via fitsctl, assert identical results, a
# model-cache hit in /metrics, and a clean SIGTERM drain.
serve-smoke:
	GO=$(GO) sh ./scripts/serve_smoke.sh

# Added, removed and net non-test Go lines per package against a git
# revision, untracked files included: `make netlines BASE=<rev>`. Tests,
# bench/ and Markdown are left out; simplicity changes report this figure.
netlines:
	@test -n "$(BASE)" || { echo "usage: make netlines BASE=<rev>" >&2; exit 2; }
	@sh ./scripts/netlines.sh $(BASE)

# A FuzzKaronte input is a whole binary that takes milliseconds to build
# and explore, so minimizing a new one under go's default 60s budget would
# eat the whole smoke; its minimization is capped at ten runs, and so is
# FuzzLiftSemantics', which emulates each sequence's prefixes.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/binimg
	$(GO) test -run='^$$' -fuzz=FuzzEncodeDecodeRoundTrip -fuzztime=$(FUZZTIME) ./internal/binimg
	$(GO) test -run='^$$' -fuzz=FuzzLoad -fuzztime=$(FUZZTIME) ./internal/loader
	$(GO) test -run='^$$' -fuzz=FuzzForward -fuzztime=$(FUZZTIME) ./internal/dataflow
	$(GO) test -run='^$$' -fuzz=FuzzAbsState -fuzztime=$(FUZZTIME) ./internal/dataflow
	$(GO) test -run='^$$' -fuzz=FuzzDBSCAN -fuzztime=$(FUZZTIME) ./internal/cluster
	$(GO) test -run='^$$' -fuzz=FuzzDiff -fuzztime=$(FUZZTIME) .
	$(GO) test -run='^$$' -fuzz=FuzzDiskStore -fuzztime=$(FUZZTIME) ./internal/diskstore
	$(GO) test -run='^$$' -fuzz=FuzzReadSubmission -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzFrontend -fuzztime=$(FUZZTIME) ./internal/frontend
	$(GO) test -run='^$$' -fuzz=FuzzLibc -fuzztime=$(FUZZTIME) ./internal/emu
	$(GO) test -run='^$$' -fuzz=FuzzKaronte -fuzztime=$(FUZZTIME) -fuzzminimizetime=10x ./internal/karonte
	$(GO) test -run='^$$' -fuzz=FuzzLiftSemantics -fuzztime=$(FUZZTIME) -fuzzminimizetime=10x ./internal/ir

ci: vet fmt-check lint build test race fuzz-smoke precision-smoke examples-smoke bench-smoke bench-check serve-smoke
