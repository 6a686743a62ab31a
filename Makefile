# TinMan build and test entry points.
#
#   make build        compile everything
#   make vet          static checks
#   make test         full test suite
#   make check        formatting + vet + build + orphan-package check +
#                     test (this module and the tinbench/ benchmark module)
#                     + the simulated-transport golden test (segments,
#                     packets, bytes and virtual time of a seeded stream,
#                     named so run-filters catches a rename) + run-filters
#                     + differential + chaos + crash-chaos + fleet-smoke +
#                     obs-smoke + guardrail + bench-smoke, the pre-commit
#                     gate
#   make run-filters  every -run filter below selects at least one test in
#                     each package it names
#   make differential interpreter equivalence gate: analyzed (taint
#                     pre-analysis fast path) vs instrumented vs reference
#   make race         race-detector pass over the concurrent subsystems
#   make chaos        deterministic fault-injection suite under -race
#   make crash-chaos  storage-engine kill-and-recover suite: exhaustive
#                     crash-point sweeps over the WAL + snapshot engine and
#                     the durable node/fleet stack on the torn-write crash
#                     FS (no cor loss, no audit Seq gap, no plaintext on
#                     disk), under -race
#   make fleet-smoke  trusted-node fleet gate: placement, drain/rebalance
#                     handoff, crash failover, wire-level routing + merged
#                     audit, all under -race
#   make guardrail    leak-guardrail gate: the exporter output (spans,
#                     trace, metrics, audit) and the node→device protocol
#                     bytes of 400 catalog and reseal operations swept for
#                     every fingerprinted secret — must find the seeded
#                     canary and nothing else
#   make obs-smoke    observability gate: traced login with valid exports,
#                     zero-alloc disabled path, Fig 13 hook-cost guard
#   make bench-smoke  one iteration of every benchmark (a does-it-run gate,
#                     not a measurement)
#   make bench-json   append a machine-readable Caffeinemark run to
#                     BENCH_vm.json (LABEL=... names the run)
#   make bench-offload
#                     append a warm-vs-cold offload latency run (trigger to
#                     first node instruction per login app) to
#                     BENCH_offload.json; its one-iteration smoke rides
#                     `make check` via bench-smoke (BenchmarkOffload) and
#                     the TestOffloadShape gate in the test suite
#   make bench-store  append a storage-engine run (WAL append throughput vs
#                     the in-memory sharded log, recovery time vs log size)
#                     to BENCH_store.json
#
# The three bench-* targets build tinman-bench into .bench_build/ and run
# the binary, so each appended run records the commit it measured (`go
# run` stamps no VCS revision) beside the Go version, GOMAXPROCS and CPU.
# Node and fleet throughput are tinbench's `reseal` and `fleet` workloads
# (bash tinbench/run.sh --workload reseal), not a make target.

GO ?= go
GOFMT ?= gofmt
LABEL ?= $(shell git log -1 --format=%h 2>/dev/null || echo manual)

.PHONY: all build vet test check run-filters differential race chaos crash-chaos fleet-smoke obs-smoke guardrail bench-smoke bench-json bench-offload bench-store clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The one command CI and contributors run before pushing: fails on any
# unformatted file, vet finding, build error, orphaned internal package, or
# test failure. An internal package is orphaned when no command, example or
# tinbench imports it, directly or not; only its own tests keep it alive.
# tinbench/ is its own module, so the root `go test ./...` never compiles
# it; it is vetted and tested separately against this tree.
check:
	@unformatted="$$($(GOFMT) -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) build ./...
	@deps="$$($(GO) list -deps ./cmd/... ./examples/... && cd tinbench && $(GO) list -deps .)" || exit 1; \
	orphans="$$($(GO) list ./internal/... | grep -vxF "$$deps")"; \
	if [ -n "$$orphans" ]; then \
		echo "internal packages that no command, example or tinbench imports:"; echo "$$orphans"; exit 1; \
	fi
	$(GO) test ./...
	$(GO) test -count=1 -run 'TestTransportGolden' ./internal/tcpsim/
	cd tinbench && $(GO) vet . && $(GO) test -count=1 .
	$(MAKE) run-filters
	$(MAKE) differential
	$(MAKE) chaos
	$(MAKE) crash-chaos
	$(MAKE) fleet-smoke
	$(MAKE) obs-smoke
	$(MAKE) guardrail
	$(MAKE) bench-smoke

# `go test -run X` passes when X matches nothing, so a renamed or deleted
# test would drop out of its gate silently. Every -run filter in this
# Makefile must select at least one test, fuzz target or example (per
# `go test -list`) in each package its line names, and every -bench filter
# at least one benchmark. A -run beside -bench deselects tests on purpose;
# such a line is checked by its -bench filter.
run-filters:
	@awk '/^\t\$$\(GO\) test .*-(run|bench) / { \
		flag = "-run"; kind = "Test|Fuzz|Example"; \
		if ($$0 ~ / -bench /) { flag = "-bench"; kind = "Benchmark" } \
		for (i = 1; i <= NF; i++) if ($$i == flag) { f = $$(i + 1); gsub("\047", "", f) } \
		for (i = 1; i <= NF; i++) if ($$i ~ /^\.\//) print kind, f, $$i \
	}' Makefile | while read -r kind filter pkg; do \
		list="$$($(GO) test -list "$$filter" "$$pkg")" || exit 1; \
		if ! printf '%s\n' "$$list" | grep -qE "^($$kind)"; then \
			echo "filter '$$filter' selects no $$kind in $$pkg"; exit 1; \
		fi; \
	done

# The node service plus the transports that drive it concurrently get a
# dedicated -race pass (multi-device service tests live in internal/node);
# internal/vm rides along since the two-loop interpreter and scheduler
# juggle shared frames and inline caches, and internal/dsm + internal/apps
# because the speculative warm-up capture/apply protocol and its login
# driver run concurrently with foreground execution.
race:
	$(GO) test -race -count=1 ./internal/node/ ./internal/nodeproto/ ./internal/fleet/ ./internal/policy/ ./internal/audit/ ./internal/fault/ ./internal/netsim/ ./internal/core/ ./internal/obs/ ./internal/vm/ ./internal/dsm/ ./internal/apps/ ./internal/store/ ./internal/ctl/...

# Interpreter equivalence gate: the analyzed interpreter (taint
# pre-analysis fast path), the fully instrumented linked interpreter, and
# the reference interpreter must produce bit-identical results, tags,
# counters and migration stops over every kernel and login app under every
# policy (internal/bench/differential_test.go), plus the vm-level deopt
# coverage tests.
differential:
	$(GO) test -count=1 -run 'TestDifferential' ./internal/bench/
	$(GO) test -count=1 -run 'TestTaintflow|TestFastPath|TestFastPush|TestLeaf' ./internal/vm/

# Observability gate: one fully traced Wi-Fi login must attribute >= 90% of
# its wall time with valid JSON-lines/Chrome exports and no cor plaintext;
# the disabled path must stay allocation-free; the interpreter hook wrapper
# must stay under the 2% Fig 13 budget.
obs-smoke:
	$(GO) test -count=1 -run 'TestObsSmoke' ./internal/bench/
	$(GO) test -count=1 -run 'TestObsZeroAllocDisabled|TestRedaction' ./internal/obs/
	$(GO) test -count=1 -run 'TestFig13TracingGuard' ./internal/bench/

# Deterministic fault-injection suite (see EXPERIMENTS.md "Chaos suite"):
# scripted partitions, node crash/restart, flapping 3G and slow-node
# scenarios, all on the virtual clock, run under the race detector. The
# fleet's chaos tests run in fleet-smoke's full -race pass over
# internal/fleet.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Fault|Replay|Reconnect|Breaker|Shutdown' ./internal/core/ ./internal/netsim/ ./internal/nodeproto/ ./internal/node/ ./internal/fault/

# Storage-engine crash gate: every store chaos sweep (kill at every
# filesystem operation, crash during snapshot, double-crash during
# recovery, recovered-state equivalence) plus the durable node and
# full-world restart suites. The invariants: acknowledged records survive,
# audit Seq stays gap-free, recovery is idempotent, and cor plaintext never
# appears in WAL or snapshot bytes. The durable fleet failover suite runs
# in fleet-smoke's full -race pass over internal/fleet.
crash-chaos:
	$(GO) test -race -count=1 ./internal/store/
	$(GO) test -race -count=1 -run 'TestDurable' ./internal/node/ ./internal/core/

# Fleet gate: deterministic placement, drain/rebalance via shard handoff,
# crash failover on the audit watermark (the whole internal/fleet suite,
# its chaos and durable tests included, under -race), and the wire layer's
# ownership gate + redirect + merged per-device audit stream.
fleet-smoke:
	$(GO) test -race -count=1 ./internal/fleet/
	$(GO) test -race -count=1 -run 'TestFleetWire|TestWireHandoff' ./internal/nodeproto/
	$(GO) test -race -count=1 -run 'TestShard|TestHandoff' ./internal/node/ ./internal/core/

# Leak-guardrail gate: fingerprint the test cor's plaintext and all four
# TLS session keys, drive 400 catalog and reseal operations from 4
# concurrent device loops at an instrumented node (any failed operation
# fails the gate), and sweep every exporter surface. The clean run must
# report zero findings; the deliberately seeded canary span must be caught
# (a silent scanner would make the zero indistinguishable from blindness).
guardrail:
	$(GO) test -count=1 -run 'TestGuardrailLoadgen' ./internal/ctl/guardrail/
	$(GO) test -count=1 -run 'TestSweeperCanary|TestScanner' ./internal/ctl/guardrail/

# One iteration of every benchmark in the tree: catches benchmarks that
# stopped compiling or panic, without pretending to measure anything (see
# EXPERIMENTS.md for real measurement recipes). The interpreter's call-path
# benchmarks are named again so run-filters catches a rename.
bench-smoke:
	$(GO) test -run NONE -bench . -benchtime 1x ./...
	$(GO) test -run NONE -bench 'BenchmarkLeafInvoke|BenchmarkFramedInvoke' -benchtime 1x ./internal/vm/

# Machine-readable Caffeinemark run appended to BENCH_vm.json: per-kernel
# ns/op and allocs/op under every tainting policy plus the unlinked
# reference interpreter. ANALYZE=off|on|both selects the taint
# pre-analysis mode; the default appends a before/after pair so the
# trajectory always records what partial instrumentation bought.
ANALYZE ?= both
bench-json:
	$(GO) build -o .bench_build/tinman-bench ./cmd/tinman-bench
ifeq ($(ANALYZE),both)
	.bench_build/tinman-bench -json BENCH_vm.json -analyze=off -label "$(LABEL) analyze=off"
	.bench_build/tinman-bench -json BENCH_vm.json -analyze=on -label "$(LABEL) analyze=on"
else
	.bench_build/tinman-bench -json BENCH_vm.json -analyze=$(ANALYZE) -label "$(LABEL) analyze=$(ANALYZE)"
endif

# Warm-vs-cold speculative offload run appended to BENCH_offload.json:
# per login app, trigger-to-first-node-instruction latency and trigger-time
# sync bytes with warm-up disabled versus enabled, plus the background
# stream's volume and the admission hit/miss counters.
bench-offload:
	$(GO) build -o .bench_build/tinman-bench ./cmd/tinman-bench
	.bench_build/tinman-bench -offload BENCH_offload.json -label "$(LABEL)"

# Storage-engine run appended to BENCH_store.json: WAL append throughput
# (serial, group-commit, pipelined) against the in-memory sharded audit
# log, and recovery time vs log size with and without snapshots.
bench-store:
	$(GO) build -o .bench_build/tinman-bench ./cmd/tinman-bench
	.bench_build/tinman-bench -store BENCH_store.json -label "$(LABEL)"

clean:
	$(GO) clean ./...
