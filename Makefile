# Development targets. `make check` is the pre-PR gate: it must pass before
# any change ships (see README.md, "Pre-PR gate").

GO ?= go
GOFMT ?= gofmt
FUZZTIME ?= 20s

# Pinned staticcheck release; CI installs/runs exactly this version. 2024.1.1
# is the line that supports the module's go 1.22.
STATICCHECK_VERSION ?= 2024.1.1
# Set STATICCHECK_STRICT=1 (CI does) to fail the build when staticcheck
# cannot be obtained, instead of degrading to a notice in offline sandboxes.
STATICCHECK_STRICT ?= 0

.PHONY: build fmt-check test test-short vet lint staticcheck race fuzz-smoke verify verifybig gates jobs-identical bench-closure bench-test bench-smoke check

build:
	$(GO) build ./...

# Formatting gate: gofmt must list no .go file of either module (the root
# and bench/) outside testdata/ directories. The analyzer fixtures there are
# skipped on purpose: their `// want` comment alignment is part of the test.
# Hidden directories (.git, .bench_build) are not searched.
fmt-check:
	@out=$$(find . -path './.*' -prune -o -path '*/testdata' -prune -o -name '*.go' -print | xargs $(GOFMT) -l) && \
	if [ -n "$$out" ]; then echo "fmt-check: not gofmt-clean (run gofmt -w):"; echo "$$out"; exit 1; fi && \
	echo "fmt-check: every .go file is gofmt-clean"

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

vet:
	$(GO) vet ./...

# The project linter: cmd/dmacplint runs the internal/analysis suite — five
# syntactic analyzers (maporder, parownership, seeddiscipline, bytehops,
# ctxdiscipline) — over the whole module, then over the separate bench/
# module, which `./...` does not reach.
# Stdlib-only, so it works offline; findings are build failures.
lint: build
	$(GO) run ./cmd/dmacplint ./...
	$(GO) -C bench run dmacp/cmd/dmacplint ./...

# staticcheck is pinned and non-optional: the PATH binary is used when
# present, otherwise the pinned release is fetched via `go run`. When neither
# works (hermetic sandbox with no module proxy) the gate prints a loud notice
# and — unless STATICCHECK_STRICT=1 — continues, because CI always enforces
# the strict path.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	else \
		echo "staticcheck@$(STATICCHECK_VERSION): unavailable (no binary on PATH, module fetch failed)."; \
		echo "CI enforces it; locally: go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)"; \
		[ "$(STATICCHECK_STRICT)" != "1" ] || exit 1; \
	fi

# The full test suite under the race detector: the worker pool, the
# singleflighted experiment cache and the distance caches must stay clean.
race:
	$(GO) test -race ./...

# A bounded run of every native fuzz target, as a smoke test; the committed
# corpora under internal/*/testdata/fuzz replay on every plain `go test`.
fuzz-smoke:
	$(GO) test ./internal/ir/ -fuzz FuzzParseProgram -fuzztime $(FUZZTIME)
	$(GO) test ./internal/exp/ -run '^FuzzPartition$$' -fuzz FuzzPartition -fuzztime $(FUZZTIME)
	$(GO) test ./internal/verify/ -run '^FuzzClosureDiff$$' -fuzz FuzzClosureDiff -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -run '^FuzzReduceSyncs$$' -fuzz FuzzReduceSyncs -fuzztime $(FUZZTIME)
	$(GO) test ./internal/assign/ -run '^FuzzMinCost$$' -fuzz FuzzMinCost -fuzztime $(FUZZTIME)

# Static schedule race detection over the default kernel, both schedules.
# -strict: advisory warnings also fail the gate (the emitters ship
# zero-warning schedules since the full transitive sync reduction).
verify: build
	$(GO) run ./cmd/dmacp verify -strict -q

# Reachability-index scale gate: a >=100k-task nested schedule must verify
# cleanly under the verifier's fixed soft memory bound (the old bitset
# closure would have refused it).
verifybig:
	$(GO) test ./internal/verify/ -run TestVerifyBigSchedule -count=1 -v

# The differential gates, each over its full suite:
#   verifydiff   random programs x every scheduler variant verify clean
#   faultsweep   seeded fault ladder over all 12 workloads: every repaired
#                schedule verifies clean, movement degrades monotonically
#   onlinesweep  every mid-run fault event repairs verifier-clean, batched
#                reassignment never loses to greedy (strictly wins on >= 3
#                workloads), re-repair beats re-partition-from-scratch
#   churnsweep   recovery events re-integrate verifier-clean and only when the
#                movement accounting wins; kill/revive loops cannot thrash;
#                an expired deadline still returns a verifier-clean repair
#   fusionsweep  fused schedules verify clean and execute identically, fused
#                bytes x hops <= unfused everywhere (strictly on >= 4)
# plus each gate's byte-identity at -j 1 vs -j 8 and its Runner experiment
# wrapper (one subtest per gate), the schedule digests (every workload's
# partitioned, baseline, checkpoint and online-repair output hashed against
# internal/exp/testdata/schedule_digests.txt), (internal/verify) the
# verifier's reports deep-equal to its test-only pre-rework reference, and
# (internal/core) the partitioner's identities: every window-sweep trial
# scores what a fixed-window run does, and every shared reuse-free plan
# equals a fresh split.
GATES = TestVerifyDifferentialAllVariantsClean TestFaultSweepAllWorkloadsRepairClean \
	TestOnlineSweepGate TestChurnSweepGate TestFusionSweepGate \
	TestGatesDeterministicAcrossJobs TestRunnerGateExperiments TestScheduleDigests \
	TestCheckMatchesReference TestSweepWinnerMatchesFixedWindow \
	TestSharedPlansMatchFreshBuild
empty :=
space := $(empty) $(empty)

gates:
	$(GO) test ./internal/exp/ ./internal/verify/ ./internal/core/ -run '^($(subst $(space),|,$(strip $(GATES))))$$' -count=1 -v

# Every table of the experiment suite at the default (EXPERIMENTS.md) scale
# must be byte-identical serial and parallel: one build, `-run all -markdown`
# at -j 1 and at -j 8, then cmp. -j is pinned at 8 rather than the CPU count
# so the worker pool fans out even on a 1-CPU host. The tables must also
# match the ones EXPERIMENTS.md records: the -j 1 output from its first
# `## Table 1` heading to the end is cmp'd against the same span of the file.
# About 1 min on 2 vCPUs.
TABLES_SPAN = sed -n '/^\#\# Table 1/,$$p'
jobs-identical:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/experiments" ./cmd/experiments && \
	"$$dir/experiments" -run all -markdown -j 1 > "$$dir/j1.md" && \
	"$$dir/experiments" -run all -markdown -j 8 > "$$dir/j8.md" && \
	cmp "$$dir/j1.md" "$$dir/j8.md" && \
	echo "jobs-identical: -j 1 and -j 8 tables are byte-identical ($$(grep -c '^## ' "$$dir/j1.md") experiments)" && \
	$(TABLES_SPAN) "$$dir/j1.md" > "$$dir/j1.tables" && \
	$(TABLES_SPAN) EXPERIMENTS.md > "$$dir/doc.tables" && \
	test -s "$$dir/doc.tables" && \
	cmp "$$dir/doc.tables" "$$dir/j1.tables" && \
	echo "jobs-identical: the tables match EXPERIMENTS.md"

# Closure construction/query microbenchmarks, interval index vs the bitset
# reference (numbers recorded in EXPERIMENTS.md).
bench-closure:
	$(GO) test ./internal/verify/ -run '^$$' -bench BenchmarkClosure -benchmem

# The benchmark module's own tests: bench/ is a separate Go module, so the
# root `go test ./...` never runs its determinism and movement checks.
bench-test:
	$(GO) -C bench vet ./... && $(GO) -C bench test ./...

# Every internal micro-benchmark, run once: a compile-and-run smoke test so
# benchmarks cannot rot silently between the runs that read their numbers.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

check: build fmt-check vet lint staticcheck test race verifybig gates bench-test bench-smoke jobs-identical
	@echo "check: all gates passed"
