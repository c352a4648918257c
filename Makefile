# Integrated FPGA design framework (IPPS 2004 reproduction).

GO ?= go

.PHONY: all build test short bench race cover tools experiments clean lint bench-gate baseline staticcheck vet-fix-list check-examples fuzz faultcheck soak bench-selftest

all: build test

lint: staticcheck
	@fmtout="$$(gofmt -l .)"; if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet ./...

# staticcheck runs the repo's custom analyzers (tools/analyzers: the general
# hygiene passes plus the determinism suite — maporder, walltime, globalrand,
# sharedwrite, hotalloc, ctxdeadline) over every package via the vet driver
# protocol. See docs/STATIC_ANALYSIS.md for the catalogue and the
# //fpgavet:ignore suppression policy.
staticcheck:
	$(GO) build -o bin/fpgavet ./cmd/fpgavet
	$(GO) vet -vettool=bin/fpgavet ./...

# vet-fix-list emits every finding — suppressed ones included, with their
# reasons — as vet_report.jsonl, the suppression-burndown report CI uploads
# as an artifact. The target itself never fails: it is a report, not a gate
# (staticcheck is the gate).
vet-fix-list:
	$(GO) build -o bin/fpgavet ./cmd/fpgavet
	@rm -f vet_report.jsonl
	-FPGAVET_JSONL=$(abspath vet_report.jsonl) $(GO) vet -vettool=bin/fpgavet ./...
	@test -f vet_report.jsonl || : > vet_report.jsonl
	@echo "vet-fix-list: $$(wc -l < vet_report.jsonl) findings in vet_report.jsonl"

# check-examples lints the committed example artifacts and the built-in
# benchmark suite with the flow's stage-boundary rules (internal/check).
check-examples:
	$(GO) build -o bin/fpgalint ./cmd/fpgalint
	./bin/fpgalint examples/netlists/fulladder.blif examples/netlists/count2.blif examples/netlists/rand64.blif examples/netlists/fulladder.bit
	./bin/fpgalint -suite
	@./bin/fpgalint examples/netlists/multidriven.blif >/dev/null 2>&1; \
		if [ $$? -ne 1 ]; then \
			echo "check-examples: multidriven.blif should fail with exit 1"; exit 1; \
		fi
	@echo "check-examples: ok"

# fuzz runs every native fuzz target for FUZZTIME each (decoders and
# parsers that face untrusted or corruptible input). Override e.g.
# `make fuzz FUZZTIME=5m` for a longer soak.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/netlist/ -run='^$$' -fuzz=FuzzParseBLIF -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/vhdl/ -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/bitstream/ -run='^$$' -fuzz=FuzzDecode -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/edif/ -run='^$$' -fuzz=FuzzRead -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/jobs/ -run='^$$' -fuzz=FuzzDecodeSpec -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/jobs/ -run='^$$' -fuzz=FuzzParseRecord -fuzztime=$(FUZZTIME)

# faultcheck runs the fault-injection and hardened-runner suites under the
# race detector: defect-aware place/route, corruption handling, stage
# timeouts/panics, the retry policy, and the cached-RR-graph defect-mask
# isolation regression.
faultcheck:
	$(GO) test -race -count=1 ./internal/fault/ ./internal/core/ ./internal/route/ -run 'Fault|Defect|Corrupt|Stuck|Stage|Retry|Escalat|Dead|Flip|Truncate|Garble'

# soak is the compile-farm chaos soak: SOAK_TENANTS tenants submit
# SOAK_JOBS jobs each across SOAK_KILLS simulated-SIGKILL/restart cycles,
# under the race detector, asserting zero lost and zero double-completed
# jobs (internal/jobs chaos harness). CI's farm-soak job runs this.
SOAK_TENANTS ?= 6
SOAK_JOBS ?= 8
SOAK_KILLS ?= 5
soak:
	$(GO) test -race -count=1 ./internal/jobs/ -run 'TestFarmSoak|TestKill|TestWALTailCorruption|TestNoOrphanedGoroutines' \
		-soak-tenants=$(SOAK_TENANTS) -soak-jobs=$(SOAK_JOBS) -soak-kills=$(SOAK_KILLS) -v

# bench-gate reruns the small suite and fails on tier-1 QoR drift vs the
# committed baseline (the same gate CI runs).
bench-gate:
	$(GO) run ./cmd/benchgate -emit BENCH_ci.json -baseline bench_baseline.json -tol 0.05

# bench-selftest builds the repository benchmark (perfbench/, its own
# module compiled against this one) and runs its self-test.
bench-selftest:
	cd perfbench && GOFLAGS=-mod=mod $(GO) test ./...

# baseline refreshes bench_baseline.json after an intentional QoR change.
baseline:
	$(GO) run ./cmd/benchgate -update bench_baseline.json

build:
	$(GO) build ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -short -cover ./...

tools:
	$(GO) build -o bin/ ./cmd/...

experiments: tools
	./bin/experiments

clean:
	rm -rf bin
