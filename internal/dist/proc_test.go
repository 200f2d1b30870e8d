package dist

// Process-worker legs: the same determinism and recovery stories, but
// with real OS processes — the test binary re-executes itself as the
// worker (TestMain calls MaybeWorker), the coordinator SIGKILLs one
// mid-run, and the recovered run must still be bit-identical.

import (
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/guard"
)

func procLauncher(t *testing.T) *ProcLauncher {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	// The worker process must not run the test suite; MaybeWorker in
	// TestMain short-circuits it, and -test.run=^$ is belt and braces
	// should the env var ever be lost.
	return &ProcLauncher{Exe: exe, Args: []string{"-test.run=^$"}}
}

func TestDistProcessWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("process workers in full mode only")
	}
	for _, name := range []string{"meshsmooth4.wl", "stencil7x2.wl"} {
		t.Run(name, func(t *testing.T) {
			sc := loadScenario(t, name)
			ref := refRun(t, sc, core.Options{})
			got, events := distRun(t, sc, Config{
				Shards:   2,
				Launcher: procLauncher(t),
			})
			compareOutcome(t, ref, got, events)
		})
	}
}

func TestDistProcessSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("process workers in full mode only")
	}
	sc := loadScenario(t, "meshsmooth4.wl")
	ref := refRun(t, sc, core.Options{})
	got, events := distRun(t, sc, Config{
		Shards:          2,
		Launcher:        procLauncher(t),
		CheckpointEvery: 256,
		Kill:            []KillSpec{{Shard: 0, Cycle: 700}, {Shard: 1, Cycle: 1900}},
	})
	compareOutcome(t, ref, got, events)
	lost := 0
	for _, f := range got.Failures {
		if f.Class == guard.ClassLost {
			lost++
		}
	}
	if lost < 2 {
		t.Errorf("lost-class failures = %d (%+v), want >= 2", lost, got.Failures)
	}
	if got.Recoveries < 2 {
		t.Errorf("recoveries = %d, want >= 2", got.Recoveries)
	}
}
