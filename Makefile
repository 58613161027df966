# Convenience targets; everything is plain `go` underneath.

.PHONY: all build lint lint-json lint-sarif test short bench bench-check alloc-smoke experiments fuzz cover examples serve

all: build lint test

build:
	go build ./...

lint:
	go vet ./...
	go run ./cmd/repairlint -baseline=.repairlint.baseline ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

# Machine-readable findings (all of them, suppressed included) on stdout.
lint-json:
	go run ./cmd/repairlint -format=json -baseline=.repairlint.baseline ./...

# SARIF 2.1.0 log of the active findings, for CI annotation/upload.
lint-sarif:
	go run ./cmd/repairlint -format=sarif -baseline=.repairlint.baseline ./... > repairlint.sarif || true
	@echo wrote repairlint.sarif

test:
	go test ./...

short:
	go test -short ./...

# Every benchmark, the layer families included: graph construction
# (./internal/vgraph), distance kernels and cache hits (./internal/strsim,
# ./internal/fd), target search (./internal/targettree), the repair phase
# (./internal/repair) and incremental ingest (./internal/incr). Narrow it
# with e.g. go test -run '^$$' -bench GreedyGrowth -benchmem ./internal/repair/
bench:
	go test -bench=. -benchmem ./...

# Same-runner A/B gate over the layer families: builds the base commit's
# and the working tree's test binaries, runs them interleaved (5 rounds,
# package by package, alternating sides) and fails when any shared entry's
# median ns/op regressed by more than 25% (entries under 100 ns/op
# skipped), or when the two sides share no entry. Raw outputs stay in
# .bench_ab/.
bench-check:
	sh cmd/benchcheck/ab.sh

# Alloc-regression smoke: the gate tests assert steady-state greedy rounds
# perform zero heap allocations (pooled grower + caller-owned buffer) and
# nearest-target searches allocate only the returned target (pooled memo,
# frontier and scorer), and the one-iteration -benchmem runs surface the
# allocs/op of the hot paths for eyeballing in CI logs.
alloc-smoke:
	go test -run 'TestGreedyGrowthSteadyStateAllocs' ./internal/repair/
	go test -run 'TestNearestSteadyStateAllocs' ./internal/targettree/
	go test -run '^$$' -bench 'BenchmarkGreedyGrowth' -benchtime=1x -benchmem ./internal/repair/
	go test -run '^$$' -bench 'BenchmarkNearest$$' -benchtime=1x -benchmem ./internal/targettree/
	go test -run '^$$' -bench 'BenchmarkGraphBuildWorkers' -benchtime=1x -benchmem ./internal/vgraph/

experiments:
	go run ./cmd/repairbench -exp all -scale 0.2

serve:
	go run ./cmd/repaird -addr :8080

fuzz:
	go test -fuzz=FuzzLevenshteinBounded -fuzztime=30s ./internal/strsim/
	go test -fuzz=FuzzOSABounded -fuzztime=30s ./internal/strsim/
	go test -fuzz=FuzzReadCSV -fuzztime=30s ./internal/dataset/

cover:
	go test -cover ./internal/... .

examples:
	go run ./examples/quickstart
	go run ./examples/threshold
	go run ./examples/hospital -n 1000
	go run ./examples/tax -n 1000
	go run ./examples/discovery -n 1000
	go run ./examples/streaming -base 800 -stream 200
	go run ./examples/masterdata -n 800
	go run ./examples/denial -n 500
