GO ?= go

.PHONY: build test race vet bench profile

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

# The benchmark BENCHMARK.json declares, every workload at full size with
# its correctness gate; the first failing workload fails the target.
# Results land in bench/out/<workload>.json (see bench/README.md).
bench:
	for w in timelock-adversarial cbc-adversarial compliant-wide arena-congested; do \
		bash bench/run.sh --workload "$$w" --seconds 8 || exit 1; \
	done

# CI's allocation-budget gate: fail if the isolated or the arena sweep in
# allocbudget_test.go allocates more bytes/deal than its ceiling.
.PHONY: alloc-gate
alloc-gate:
	$(GO) test -run TestAllocationBudgetPerDeal -v .

# Profile one scenario's sweep: make profile S=scenarios/profile-timelock.json
# writes prof/<name>.cpu.pprof and prof/<name>.mem.pprof (read alloc_space
# with go tool pprof -sample_index=alloc_space) and the report beside them.
# Exit 1 from dealsweep only flags violations in the population, so it
# does not fail the target.
PROF ?= prof
profile:
	@test -n "$(S)" || { echo "usage: make profile S=<scenario.json>"; exit 2; }
	@mkdir -p bin $(PROF)
	$(GO) build -o bin/dealsweep ./cmd/dealsweep
	@n=$$(basename $(S) .json); \
	./bin/dealsweep -scenario $(S) -cpuprofile $(PROF)/$$n.cpu.pprof -memprofile $(PROF)/$$n.mem.pprof \
		> $(PROF)/$$n.txt; rc=$$?; test $$rc -le 1 || exit $$rc; \
	echo "wrote $(PROF)/$$n.cpu.pprof, $(PROF)/$$n.mem.pprof and $(PROF)/$$n.txt"
