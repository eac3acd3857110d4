# pciebench — reproduction of "Understanding PCIe performance for end
# host networking" (SIGCOMM 2018). CI runs exactly these targets; run
# them locally before pushing.

GO ?= go

.PHONY: all build test test-short race cover fmt fmt-check vet bench bench-smoke bench-compare alloc-gate repro-check serve-smoke chaos-smoke clean

all: build test

# The root module, then the nested perfbench module (which `./...`
# skips) so an exported-API change that breaks it fails here.
build:
	$(GO) build ./...
	$(GO) -C perfbench build -o /dev/null .

# Full test suite (figure/table shape checks included, ~1 min on one core).
test:
	$(GO) test ./...

# Seconds-fast subset: skips the heavyweight experiment sweeps.
test-short:
	$(GO) test -short ./...

# Full suite under the race detector; the parallel experiment engine
# must stay data-race free at any worker count.
race:
	$(GO) test -race ./...

# Coverage floor enforced by CI. Raise it as coverage grows; never
# lower it to get a change through. (Total was 84.3% when the gate
# landed; the margin absorbs run-to-run flutter from gated/short
# paths.)
COVER_BASELINE ?= 82.0

# Full suite with a statement-coverage profile; fails when total
# coverage drops below the baseline. CI uploads coverage.out.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$total% (baseline $(COVER_BASELINE)%)"; \
	awk -v t="$$total" -v b="$(COVER_BASELINE)" 'BEGIN { exit (t+0 < b+0) ? 1 : 0 }' || \
		{ echo "FAIL: coverage $$total% fell below the $(COVER_BASELINE)% baseline"; exit 1; }

fmt:
	gofmt -w .

# Fails if any file is not gofmt-clean (what CI runs).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Full benchmark sweep (regenerates every figure as a testing.B target).
bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# BENCH_N tags the machine-readable benchmark report with the PR
# sequence number (commit count by default) so BENCH_<n>.json files
# track the perf trajectory across PRs.
BENCH_N ?= $(shell git rev-list --count HEAD 2>/dev/null || echo 0)

# One iteration of every benchmark: cheap CI smoke that the bench
# harness still runs end to end. Also writes BENCH_$(BENCH_N).json with
# the per-benchmark medians/bandwidths via cmd/benchjson.
bench-smoke:
	@$(GO) test -bench=. -benchtime=1x -run '^$$' . > bench-smoke.out || (cat bench-smoke.out; rm -f bench-smoke.out; exit 1)
	@cat bench-smoke.out
	@$(GO) run ./cmd/benchjson -out BENCH_$(BENCH_N).json < bench-smoke.out
	@rm -f bench-smoke.out
	@echo "wrote BENCH_$(BENCH_N).json"

# Runs the smoke benchmarks and prints old-vs-new ns/op against the
# most recent committed BENCH_*.json, so a perf change can be eyeballed
# before committing a new report. Writes nothing.
bench-compare:
	@old=$$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1); \
	if [ -z "$$old" ]; then echo "no committed BENCH_*.json to compare against"; exit 1; fi; \
	$(GO) test -bench=. -benchtime=1x -run '^$$' . > bench-compare.out || \
		{ cat bench-compare.out; rm -f bench-compare.out; exit 1; }; \
	$(GO) run ./cmd/benchjson -compare $$old < bench-compare.out || \
		{ rm -f bench-compare.out; exit 1; }; \
	rm -f bench-compare.out

# Runs the hot-path benchmarks that must stay allocation-free in steady
# state (event kernel, root-complex pipeline, LLC model sequential and
# random-window access, IO-TLB translation, the end-to-end simulated DMA
# loop, and the 64 MB host and device LLC warms) at a fixed iteration
# count, and fails if any of them reports non-zero allocs/op. The warms
# take milliseconds each, so they run 200 times rather than 20000. What
# CI's "Zero-allocation gate" step runs.
alloc-gate:
	@out="$$($(GO) test -run '^$$' -bench '^Benchmark(KernelEventLoop|MultiServer|CacheDeviceAccess|CacheRandomWindow|IOMMUTranslate|SimulatedDMARate)$$' \
		-benchtime 20000x -benchmem . && \
		$(GO) test -run '^$$' -bench '^BenchmarkWarm(Host|Device)$$' -benchtime 200x -benchmem .)" || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | awk '/allocs\/op/ { n++; if ($$(NF-1) != 0) { print "FAIL: " $$1 " reports " $$(NF-1) " allocs/op"; bad = 1 } } \
		END { if (n == 0) { print "FAIL: no benchmark ran"; bad = 1 } exit bad }'

# Byte identity of pcie-repro's quick-quality output and of the
# pcie-bench -suite report: regenerates every figure and table TSV and
# the 2160-cell suite TSV into a temporary directory and diffs them
# against the committed goldens. What CI's "Repro byte identity" step
# runs. After an intended output change, regenerate the goldens with
#   go run ./cmd/pcie-repro -out cmd/pcie-repro/testdata/quick
#   go run ./cmd/pcie-bench -suite > cmd/pcie-bench/testdata/suite.tsv
# and review the diff. (A make target rather than a Go test, so the race
# job does not rerun the whole report under the race detector.)
repro-check:
	@dir="$$(mktemp -d)"; \
	if $(GO) run ./cmd/pcie-repro -out "$$dir/quick" > /dev/null && \
		$(GO) run ./cmd/pcie-bench -suite > "$$dir/suite.tsv" 2> "$$dir/suite.err"; then \
		diff -r cmd/pcie-repro/testdata/quick "$$dir/quick" && \
			diff cmd/pcie-bench/testdata/suite.tsv "$$dir/suite.tsv"; status=$$?; \
	else cat "$$dir/suite.err" 2> /dev/null; status=1; fi; \
	rm -rf "$$dir"; \
	if [ $$status -eq 0 ]; then echo "repro TSVs and suite report byte-identical to their goldens"; fi; \
	exit $$status

# End-to-end smoke of the sweep service (cmd/pcie-served): boots the
# server, drives the v1 HTTP API, checks served-vs-CLI byte identity
# and cache accounting, then shuts it down. What CI's "Service smoke"
# step runs.
serve-smoke:
	sh examples/serve/smoke.sh

# Chaos smoke of the service hardening: oversized body -> 413, slow
# client -> read-deadline disconnect, overrunning job -> "timeout"
# state, full job queue -> 503 with Retry-After. What CI's "Service
# chaos smoke" step runs.
chaos-smoke:
	sh examples/serve/chaos.sh

clean:
	rm -rf repro-out
	$(GO) clean ./...
