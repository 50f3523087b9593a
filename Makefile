# Development entry points. CI (.github/workflows/ci.yml) runs the same
# gates; `make lint` is the local equivalent of the format/vet/dcsvet/
# staticcheck checks, so a branch that passes it locally does not bounce off
# the lint half of CI.

GO ?= go

# Tool pins: bump deliberately, in lockstep with .github/workflows/ci.yml.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test race allocs bench lint lint-fast fmt vet dcsvet staticcheck vulncheck cross

all: build test

build:
	$(GO) build ./...

# perfbench is a separate module that `./...` skips; vetting and testing it
# here catches a root API change that would break the benchmark's replay.
test:
	$(GO) test ./...
	cd perfbench && $(GO) vet . && $(GO) test -count=1 .

race:
	$(GO) test -race ./...

# Allocation guards (testing.AllocsPerRun; !race build tag, so `make race`
# skips them): the peel engine and the average-degree solvers allocate per
# solve, not per component or per ratio probe; NewSEA, CollectCliques and
# SEACD+Refine allocate per initialization, not per vertex (the last two at
# degrees 1 and 2); an incremental watch tick allocates the same whatever the
# graph size; decoding an upload allocates the same whatever its edge count.
allocs:
	$(GO) test -count=1 -run 'Allocs' ./internal/densest/ ./internal/core/ ./internal/evolve/ ./serve/

# Solver micro-benchmarks: BenchmarkCore (one line per operation),
# BenchmarkPar (each parallel solver at degrees 1/2/4/GOMAXPROCS) and
# BenchmarkDeltaTick (incremental vs scratch watch ticks). BENCH_micro.txt is
# this target's committed output: `make bench | tee BENCH_micro.txt`.
bench:
	$(GO) test -run '^$$' -bench '^Benchmark(Core|Par|DeltaTick)$$' -benchmem . ./internal/evolve/

# The single lint gate: formatting, go vet, the repo's own analyzers, and
# staticcheck. dcsvet is the part generic linters cannot replace — it
# enforces the solver-cancellation, determinism, lock-annotation and
# context-threading invariants documented in CONTRIBUTING.md.
lint: fmt vet dcsvet staticcheck

# The inner-loop lint: formatting plus the repo's own analyzers, which
# re-analyze the whole tree on every run; the full `make lint` adds go vet
# and staticcheck.
lint-fast: fmt dcsvet

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

dcsvet:
	$(GO) run ./cmd/dcsvet ./...

# staticcheck is an external tool: use an installed binary if there is one,
# otherwise fetch the pinned version with `go run`. On a machine with no
# binary and no module proxy access the step is skipped with a notice rather
# than failing the whole gate — CI still enforces it unconditionally.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./... 2>/tmp/staticcheck.err; then \
		:; \
	elif grep -qiE 'dial tcp|proxy|connect:|no such host|offline' /tmp/staticcheck.err; then \
		echo "staticcheck skipped: pinned tool not fetchable offline (CI runs it)" >&2; \
	else \
		cat /tmp/staticcheck.err >&2; exit 1; \
	fi

vulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# Cross-OS compile smoke, mirroring the CI cross-build job.
cross:
	GOOS=windows $(GO) build ./...
	GOOS=darwin $(GO) build ./...
