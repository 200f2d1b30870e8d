# Build/verify entry points. Each question has one instrument: `go test`
# proves (every determinism, containment and recovery contract is a named
# test), benchmark/ measures (host time, see BENCHMARK.json), and
# cmd/mbench reproduces the paper's tables and figures. `make ci` is the
# tier-1 gate (build, vet, mlint, the full test suite) plus a shuffled
# short pass (order-dependent tests are bugs), a race pass (short mode
# everywhere; the supervision layers, the dist coordinator and the
# fork-concurrency tests in full), the worker-pool speedup tripwire, an
# end-to-end msim -save/-restore round trip, a run of every example, an
# end-to-end run of every checked-in workload scenario
# (testdata/workloads/*.wl under msim, and the sweep-free ones again under
# msim -shards 2 and -shards 3, digests compared), a fuzzing smoke over
# the snapshot decoder and the runs of the snapshots it accepts, the DSL
# front end, msimd's checkpoint envelope, assembled programs, scenario
# runs and the dist wire frames, a one-shot benchmark smoke pass (every
# benchmark runs once, so a panicking or regressed-to-failure benchmark
# breaks CI without paying for measurement), and a benchdiff over the two
# most recent BENCH_<n>.json records (any metric delta or disappearance
# between records is a determinism break, which fails).

GO ?= go

.PHONY: ci build vet lint test shuffle race speedup checkpoint examples wl fuzz-smoke bench-smoke bench benchdiff pairs

ci: build vet lint test shuffle race speedup checkpoint examples wl fuzz-smoke bench-smoke benchdiff

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-specific determinism analyzers (cmd/mlint over internal/lint; see
# DESIGN.md "Static analysis" and docs/mlint.md): no map iteration or
# multi-ready select on simulation paths, no wall clock or global rand
# outside supervision, no goroutines outside the supervised pools, every
# snapshot-covered struct field encoded or tagged snap:"derived", plus
# shadow/nilness (copylocks is the vet leg's). Any unsuppressed finding
# fails the gate; every suppression carries a reason (`mlint
# -suppressions` audits them).
lint:
	$(GO) run ./cmd/mlint

test:
	$(GO) test ./...

# Shuffled short pass: test order dependence is a determinism bug of the
# test suite itself. The package-level mutable state left for it to police
# is small: core's unexported defaultNaiveEngine/defaultWorkers hooks
# (written only by engine_test.go's underMode, restored by defer), the
# test binaries' own fixtures, and whatever a test leaks into a shared
# temp dir or the process environment. -shuffle prints its seed, so an
# order-dependent failure is reproducible.
shuffle:
	$(GO) test -shuffle=on -short -count=1 ./...

# The short pass covers every package; the supervision layers — where the
# goroutines, locks and watchdogs live: serve, guard, and the dist
# coordinator with its recovery paths — also run their full suites under
# the race detector, and so do the fork-concurrency tests (a parent and
# its forks share SDRAM chunks copy-on-write without synchronization,
# which is only sound if no goroutine ever writes a shared chunk) and the
# shared-program test (machines on several goroutines load the same
# programs, whose issue summaries are filled once, on first load).
race:
	$(GO) test -race -short ./...
	$(GO) test -race -count=1 ./internal/serve ./internal/guard ./internal/dist
	$(GO) test -race -count=1 -run 'TestForkConcurrent|TestSharedProgramsConcurrentLoad' ./internal/machine ./internal/mem ./internal/core

# Worker-pool speedup tripwire, in its own invocation so the wall-clock
# measurement never contends with other package test binaries. The lines
# printed are the test's own: the measured speedup, then, on hosts with
# fewer than 4 cores, "skipped: <why>" in place of the 2x assertion.
speedup:
	@out=$$(PARALLEL_SPEEDUP=1 $(GO) test -v -run TestParallelSpeedup -count=1 . 2>&1); rc=$$?; \
	echo "$$out" | grep -E 'parallel_bench_test.go:|^--- FAIL|^FAIL' | sed 's/^ */speedup: /'; exit $$rc

# End-to-end msim -save / -restore round trip. The library side of the
# checkpoint contract (the engine-pair round-trip matrix, the corrupt-stream
# error paths, Fork ≡ Restore(Save) and copy-on-write isolation) is the
# TestSnapshot*/TestShardFrame*/TestSimFork*/TestFork*/TestClone* tests the
# `test` leg has just run.
checkpoint:
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/msim -save $$tmp/ci.snap testdata/fib.masm >$$tmp/a.out && \
	$(GO) run ./cmd/msim -restore $$tmp/ci.snap testdata/fib.masm >$$tmp/b.out && \
	grep -q 'i1  = 6765' $$tmp/b.out && echo "checkpoint: msim save/restore round trip OK"; \
	rc=$$?; rm -rf $$tmp; exit $$rc

# Build and run every example binary; each must exit 0 (go build ./...
# only type-checks main packages, and an example that links but fails at
# run time is as broken as one that does not link).
examples:
	@tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/ ./examples/...; rc=$$?; \
	for b in $$tmp/*; do \
		[ $$rc -eq 0 ] || break; \
		$$b >/dev/null || { echo "examples: $$(basename $$b) failed"; rc=1; }; \
	done; \
	[ $$rc -ne 0 ] || echo "examples: every example ran OK"; \
	rm -rf $$tmp; exit $$rc

# Run every checked-in workload scenario end to end under msim: a parse
# error, a failed expectation, or a phase divergence fails the gate. Every
# sweep-free scenario (the distributed engine cannot follow a sweep's
# forks) also runs on two and on three shard worker processes (three give
# uneven node ranges), which must print the in-process run's digest line.
wl:
	@tmp=$$(mktemp -d); $(GO) build -o $$tmp/msim ./cmd/msim || exit 1; \
	for f in testdata/workloads/*.wl; do \
		echo "msim -workload $$f"; \
		out=$$($$tmp/msim -workload $$f) || { rm -rf $$tmp; exit 1; }; \
		d=$$(printf '%s\n' "$$out" | grep '^digest: ') || { rm -rf $$tmp; exit 1; }; \
		grep -q '^sweep ' $$f && continue; \
		for n in 2 3; do \
			echo "msim -shards $$n -workload $$f"; \
			out=$$($$tmp/msim -shards $$n -workload $$f) || { rm -rf $$tmp; exit 1; }; \
			s=$$(printf '%s\n' "$$out" | grep '^digest: ') || { rm -rf $$tmp; exit 1; }; \
			[ "$$s" = "$$d" ] || { echo "wl: $$f: $$n shards $$s, in process $$d"; rm -rf $$tmp; exit 1; }; \
		done; \
	done; rm -rf $$tmp; echo "wl: all scenarios OK, sharded digests equal"

# Native fuzzing smoke over the snapshot decoder (corrupt stream =>
# descriptive error, never a panic, never a half-mutated machine, and an
# accepted stream's state runs 1000 cycles without a crash; minimization
# is capped so the 10s budget is spent fuzzing rather than shrinking
# ~100KB snapshot inputs), the DSL front end (arbitrary source =>
# positional error or a valid lowering, never a panic; the checked-in
# corpus slants toward the sweep/grant parser paths), the msimd
# checkpoint envelope (arbitrary spool file => read error, or a position
# its scenario's run Seeks without panicking), the assembler plus engine
# and the scenario compiler plus engine (arbitrary source => a compile
# error, or a supervised run that ends in a classified failure other
# than a crash), and the dist wire frames (arbitrary bytes => a decode
# error or a value, never a panic or a length-sized allocation). The
# snapshot decoder and the dist frames read byte slices, so the input's
# length bounds every count they decode.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime 10s -fuzzminimizetime 5x ./internal/machine
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/wdsl
	$(GO) test -run '^$$' -fuzz FuzzCheckpoint -fuzztime 10s -fuzzminimizetime 5x ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzAssembleRun -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzScenarioRun -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzFrames -fuzztime 10s ./internal/dist

bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Compare the two newest checked-in bench records (numeric sort on the
# record index); skips quietly when fewer than two exist. The records hold
# simulated metrics only, so a delta between them is a genuine determinism
# break (host noise cannot produce one) and fails the gate. A PR that
# deliberately changes simulated behavior must regenerate the older record
# or own the red diff.
benchdiff:
	@set -- $$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n); \
	if [ $$# -lt 2 ]; then \
		echo "benchdiff: fewer than two BENCH_*.json records, nothing to compare"; \
	else \
		shift $$(($$# - 2)); \
		echo "$(GO) run ./cmd/benchdiff $$1 $$2"; \
		$(GO) run ./cmd/benchdiff $$1 $$2; \
	fi

# Full measurement run (slow): allocation stats included.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Alternating parent/change pairs of one benchmark workload, run from
# sibling temporary directories (not a ci leg: 2 x 10 x 12 s of wall per
# workload by default), then one traced run per side; fails if the two
# sides' simulated results differ. ARGS is scripts/pairs.sh's WORKLOAD
# [SEED] [N], e.g. `make pairs ARGS="busy-alu 29"`.
ARGS ?= busy-alu
pairs:
	@bash scripts/pairs.sh $(ARGS)
