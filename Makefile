# Build/verify entry points. `make ci` is the tier-1 gate plus a race pass
# over the parallel engine (short mode: the full experiment determinism
# matrix is too slow under the race detector's instrumentation), the
# checkpoint round-trip gate, an examples link pass, an end-to-end run of
# every checked-in workload scenario (testdata/workloads/*.wl under
# msim), a shuffled short test pass (order-dependent tests are bugs),
# the generated-scenario determinism fuzzer (mbench -gen: 200 wgen
# seeds, every engine, bit-identical, failures replayable with
# msim -gen-seed), the fault-injection soak and a snapshot-decoder fuzzing smoke
# (the supervision layer's containment contracts, see DESIGN.md
# "Supervised runs & fault injection"), the msimd service chaos soak
# (mbench -serve: checkpoint-based recovery must be bit-identical, see
# docs/msimd.md), the distributed-engine soak (mbench -dist: the
# multi-process determinism matrix and the chaos shard-kill drills, plus
# a race pass over the coordinator; see docs/mdist.md), a one-shot
# benchmark smoke pass
# (every benchmark runs once, so a panicking or regressed-to-failure
# benchmark breaks CI without paying for measurement), and a benchdiff
# over the two most recent BENCH_<n>.json records (any metric delta or
# disappearance between records is a determinism break, which fails;
# wall time is advisory only, compared under a tolerance).

GO ?= go

.PHONY: ci build vet lint test shuffle race speedup checkpoint examples wl gen faults serve dist fuzz-smoke bench-smoke bench benchdiff

ci: build vet lint test shuffle race speedup checkpoint examples wl gen faults serve dist fuzz-smoke bench-smoke benchdiff

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
# test suite itself (shared package-level engine defaults, leaked global
# state). -shuffle prints its seed, so an order-dependent failure is
# reproducible.
shuffle:
	$(GO) test -shuffle=on -short -count=1 ./...

# The short pass covers every package; the supervision layers — where the
# goroutines, locks and watchdogs live — also run their full suites under
# the race detector (serve and guard here, dist in the dist leg), and so
# do the fork-concurrency tests: a parent and its forks share SDRAM
# chunks copy-on-write without synchronization, which is only sound if
# no goroutine ever writes a shared chunk.
race:
	$(GO) test -race -short ./...
	$(GO) test -race -count=1 ./internal/serve ./internal/guard
	$(GO) test -race -count=1 -run 'TestForkConcurrent' ./internal/machine ./internal/mem

# Worker-pool speedup tripwire, in its own invocation so the wall-clock
# measurement never contends with other package test binaries. It skips on
# hosts with fewer than 4 cores, and says so: the one line printed is the
# test's own log line — the measured speedup, or "skipped: <why>".
speedup:
	@out=$$(PARALLEL_SPEEDUP=1 $(GO) test -v -run TestParallelSpeedup -count=1 . 2>&1); rc=$$?; \
	echo "$$out" | grep -E 'parallel_bench_test.go:|^--- FAIL|^FAIL' | sed 's/^ */speedup: /'; exit $$rc

# Checkpoint round-trip gate, in its own invocation so a snapshot
# regression is named in CI output: the engine-pair determinism matrix
# (run -> snapshot -> continue vs restore -> continue, bit-identical
# including trace streams), the corrupt/truncated/wrong-version error
# paths, Fork ≡ Restore(Save) under every engine (TestSimForkMatchesRestore)
# with the copy-on-write isolation tests under it, and an end-to-end
# msim -save / -restore round trip.
checkpoint:
	$(GO) test -run 'TestSnapshot|TestDoubleClose|TestRestoredBoot|TestSimFork|TestSimRestore|TestFork|TestClone|TestAdopt' -count=1 ./internal/machine ./internal/core ./internal/mem
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/msim -save $$tmp/ci.snap testdata/fib.masm >$$tmp/a.out && \
	$(GO) run ./cmd/msim -restore $$tmp/ci.snap testdata/fib.masm >$$tmp/b.out && \
	grep -q 'i1  = 6765' $$tmp/b.out && echo "checkpoint: msim save/restore round trip OK"; \
	rc=$$?; rm -rf $$tmp; exit $$rc

# Link every example binary (go build ./... only type-checks main
# packages; this leg catches link-level breakage in examples/*).
examples:
	@tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/ ./examples/...; rc=$$?; \
	rm -rf $$tmp; exit $$rc

# Run every checked-in workload scenario end to end under msim: a parse
# error, a failed expectation, or a phase divergence fails the gate.
wl:
	@for f in testdata/workloads/*.wl; do \
		echo "msim -workload $$f"; \
		$(GO) run ./cmd/msim -workload $$f >/dev/null || exit 1; \
	done; echo "wl: all scenarios OK"

# Generated-scenario determinism fuzzer (internal/wgen via cmd/mbench
# -gen): 200 seed-derived scenarios — sweeps, user-mode grants, message
# storms — each run under every in-process engine (plus a distributed
# subsample), bit-identical digests and trace streams required. A
# failure prints the seed; `msim -gen-seed N` replays it.
gen:
	$(GO) run ./cmd/mbench -gen 200

# Deterministic fault-injection soak (cmd/mbench/faults.go): injected
# panics at chosen (chip, cycle) sites, stalls, budget cutoffs, crash
# dumps, and seeded snapshot-stream corruptions must all be contained by
# the supervision layer, identically under every engine.
faults:
	$(GO) run ./cmd/mbench -faults

# Service chaos-recovery soak (cmd/mbench/serve.go): a chaos-injected
# msimd server (worker panics, wall-clock stalls) must recover every
# faulted session from its checkpoints bit-identically to a chaos-free
# control server, shed load when the admission queue fills, and
# drain/re-adopt suspended sessions across a restart. See docs/msimd.md.
serve:
	$(GO) run ./cmd/mbench -serve

# Distributed-engine soak (cmd/mbench/dist.go): the multi-process
# determinism matrix (every scenario bit-identical across shard counts,
# local-pipe and real OS-process workers) plus the chaos drills (panic,
# wedge, SIGKILL mid-run; classified, recovered from checkpoints, still
# bit-identical — see docs/mdist.md), then a race pass over the
# coordinator, supervision, and recovery paths.
dist:
	$(GO) run ./cmd/mbench -dist
	$(GO) test -race -count=1 ./internal/dist

# Native fuzzing smoke over the snapshot decoder (corrupt stream =>
# descriptive error, never a panic, never a half-mutated machine;
# minimization is capped so the 10s budget is spent fuzzing rather than
# shrinking ~100KB snapshot inputs) and the DSL front end (arbitrary
# source => positional error or a valid lowering, never a panic; the
# checked-in corpus slants toward the sweep/grant parser paths).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime 10s -fuzzminimizetime 5x ./internal/machine
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/wdsl

bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Compare the two newest checked-in bench records (numeric sort on the
# record index); skips quietly when fewer than two exist. Wall time is
# advisory by construction — without -strict-wall, benchdiff can only fail
# on metric deltas between checked-in records, which are genuine
# determinism breaks (host noise cannot produce them), so those do fail
# the gate. A PR that deliberately changes simulated behavior must
# regenerate the older record or own the red diff.
benchdiff:
	@set -- $$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n); \
	if [ $$# -lt 2 ]; then \
		echo "benchdiff: fewer than two BENCH_*.json records, nothing to compare"; \
	else \
		shift $$(($$# - 2)); \
		echo "$(GO) run ./cmd/benchdiff -tol 2.0 $$1 $$2"; \
		$(GO) run ./cmd/benchdiff -tol 2.0 $$1 $$2; \
	fi

# Full measurement run (slow): allocation stats included.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...
