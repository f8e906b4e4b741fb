GO ?= go

.PHONY: build test race vet bench-snapshot

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race gate CI runs: every package, slow sweeps trimmed by -short.
race:
	$(GO) test -race -short ./...

# Build xdealvet and run the whole module through it via go vet.
vet:
	@mkdir -p bin
	$(GO) build -o bin/xdealvet ./cmd/xdealvet
	$(GO) vet -vettool=$(CURDIR)/bin/xdealvet ./...

# Refresh the committed throughput snapshot for the given PR number
# (make bench-snapshot PR=10 writes BENCH_pr10.json). Wall-clock,
# stage, and allocation fields vary by machine and worker count; the
# latency/gas percentiles are seed-deterministic.
PR ?= 10
bench-snapshot:
	$(GO) run ./cmd/dealsweep -deals 512 -workers 0 -seed 7 -bench-json > BENCH_pr$(PR).json
	@cat BENCH_pr$(PR).json

# CI's allocation-budget gate: fail if the block-production hot path
# allocates more than the bytes/deal ceiling in allocbudget_test.go.
.PHONY: alloc-gate
alloc-gate:
	$(GO) test -run TestAllocationBudgetPerDeal -v .
