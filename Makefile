# Developer entry points. Everything here is plain `go` — no external tools.

GO      ?= go

.PHONY: all build vet test race bench-alloc-gate profile-dataplane loc

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The allocation gates CI enforces: steady-state packet flow must not
# allocate — on no-op stages (serial and Movers=2/Movers=4 sharded paths)
# and on real NFs mutating arena frames in place.
bench-alloc-gate:
	$(GO) test -run=TestSteadyStateZeroAllocs -count=1 -v ./internal/dataplane/
	$(GO) test -run='TestRealNFChainZeroAllocs|TestNFChainChurnZeroAllocs' -count=1 -v ./internal/nfs/

# CPU + mutex-contention profiles of the closed-loop 3-stage chain at
# Movers=4, for chasing hot-path and lock regressions. Inspect with
# `go tool pprof`.
profile-dataplane:
	@mkdir -p results
	$(GO) test -run='^$$' -bench='Chain3StagesMovers/4' -benchtime=5s \
		-cpuprofile results/dataplane_cpu.pprof \
		-mutexprofile results/dataplane_mutex.pprof \
		-o results/dataplane.test ./internal/dataplane/

# ROADMAP's success metric, counted as the re-anchor counts it: non-blank,
# non-comment lines of non-test Go outside benchmark/.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs cat | grep -cv '^\s*$$\|^\s*//'
