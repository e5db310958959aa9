# Development targets. `make check` is the pre-PR gate: it must pass before
# any change ships (see README.md, "Pre-PR gate").

GO ?= go
FUZZTIME ?= 20s

# Pinned staticcheck release; CI installs/runs exactly this version. 2024.1.1
# is the line that supports the module's go 1.22.
STATICCHECK_VERSION ?= 2024.1.1
# Set STATICCHECK_STRICT=1 (CI does) to fail the build when staticcheck
# cannot be obtained, instead of degrading to a notice in offline sandboxes.
STATICCHECK_STRICT ?= 0

.PHONY: build test test-short vet lint staticcheck race fuzz-smoke verify verifybig gates bench-closure bench bench-json bench-gate bench-test bench-diff check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

vet:
	$(GO) vet ./...

# The project linter: cmd/dmacplint runs the internal/analysis suite — five
# syntactic analyzers (maporder, parownership, seeddiscipline, bytehops,
# ctxdiscipline) plus three interprocedural ones over module-wide call-graph
# summaries (detflow, lockorder, frozenstate) — over the whole module.
# Stdlib-only, so it works offline; findings are build failures.
lint: build
	$(GO) run ./cmd/dmacplint ./...

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

# Static schedule race detection over the default kernel, both schedules.
# -strict: advisory warnings also fail the gate (the emitters ship
# zero-warning schedules since the full transitive sync reduction).
verify: build
	$(GO) run ./cmd/dmacp verify -strict -q

# Reachability-index scale gate: a >=100k-task nested schedule must verify
# cleanly under the default soft memory bound (the old bitset closure would
# have refused it).
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
#                deadline probes return verifier-clean incumbents
#   fusionsweep  fused schedules verify clean and execute identically, fused
#                bytes x hops <= unfused everywhere (strictly on >= 4)
# plus each gate's byte-identity at -j 1 vs -j 8.
GATES = TestVerifyDifferentialAllVariantsClean TestFaultSweepAllWorkloadsRepairClean \
	TestOnlineSweepGate TestChurnSweepGate TestFusionSweepGate \
	TestVerifyDifferentialDeterministicAcrossJobs TestFaultSweepDeterministicAcrossJobs \
	TestOnlineSweepJobsDeterminism TestChurnSweepJobsDeterminism TestFusionSweepJobsDeterminism
empty :=
space := $(empty) $(empty)

gates:
	$(GO) test ./internal/exp/ -run '^($(subst $(space),|,$(strip $(GATES))))$$' -count=1 -v

# Closure construction/query microbenchmarks, interval index vs the bitset
# reference (numbers recorded in EXPERIMENTS.md).
bench-closure:
	$(GO) test ./internal/verify/ -run '^$$' -bench BenchmarkClosure -benchmem

# Per-experiment benchmarks (one per table/figure of the paper).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Benchmark-trajectory harness: micro hot-path costs + serial-vs-parallel
# suite timings + table byte-identity check, recorded to BENCH_$(PR).json.
# PR names the record and is required, so no run overwrites an older one:
# `make bench-json PR=<n>` writes BENCH_<n>.json.
bench-json: build
	@[ -n "$(PR)" ] || { echo "bench-json: set PR=<n>; the record is written to BENCH_<n>.json"; exit 2; }
	$(GO) run ./cmd/dmacp bench -o BENCH_$(PR).json

# The pre-PR form of bench-json: the same harness and table byte-identity
# gate, with the record written to a temporary file that is then removed, so
# the gate never touches a committed BENCH_*.json.
bench-gate: build
	@out=$$(mktemp); $(GO) run ./cmd/dmacp bench -o "$$out"; st=$$?; rm -f "$$out"; exit $$st

# The benchmark module's own tests: bench/ is a separate Go module, so the
# root `go test ./...` never runs its determinism and movement checks.
bench-test:
	$(GO) -C bench vet ./... && $(GO) -C bench test ./...

# Trajectory guard: diff the two newest BENCH_*.json records and fail on any
# per-metric regression above 10% (ns/op, allocs/op, B/op, suite seconds).
bench-diff: build
	$(GO) run ./cmd/experiments -bench-diff

check: build vet lint staticcheck test race verifybig gates bench-test bench-gate
	@echo "check: all gates passed"
