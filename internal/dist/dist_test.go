package dist

// The determinism matrix: every scenario must produce bit-identical
// results — cycle counts, check outcomes, trace streams, and the sha256
// digest of the final machine snapshot — on the naive, event, parallel,
// and distributed engines, for every shard count, including distributed
// runs that lose and recover workers mid-flight.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/machine"
	"repro/internal/serve"
	"repro/internal/trace"
)

func loadScenario(t *testing.T, name string) *core.Scenario {
	t.Helper()
	sc, err := core.ScenarioFromFile(filepath.Join("..", "..", "testdata", "workloads", name))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// refRun executes a scenario on an in-process engine and fingerprints
// the outcome.
type refOutcome struct {
	res    *core.ScenarioResult
	digest string
	events []trace.Event
}

func refRun(t *testing.T, sc *core.Scenario, o core.Options) refOutcome {
	t.Helper()
	res, s, err := sc.RunSim(o)
	if err != nil {
		t.Fatalf("in-process run: %v", err)
	}
	digest, err := s.M.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return refOutcome{res: res, digest: digest, events: s.Recorder.Events}
}

func distRun(t *testing.T, sc *core.Scenario, cfg Config) (*RunResult, []trace.Event) {
	t.Helper()
	if cfg.Launcher == nil {
		cfg.Launcher = LocalLauncher{}
	}
	res, s, err := RunScenario(sc, core.Options{}, cfg)
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	return res, s.Recorder.Events
}

func compareOutcome(t *testing.T, ref refOutcome, got *RunResult, events []trace.Event) {
	t.Helper()
	if got.TotalCycles != ref.res.TotalCycles {
		t.Errorf("total cycles %d, want %d", got.TotalCycles, ref.res.TotalCycles)
	}
	if got.Checks != ref.res.Checks {
		t.Errorf("checks %d, want %d", got.Checks, ref.res.Checks)
	}
	if len(got.Phases) != len(ref.res.Phases) {
		t.Fatalf("phases %v, want %v", got.Phases, ref.res.Phases)
	}
	for i := range got.Phases {
		if got.Phases[i] != ref.res.Phases[i] {
			t.Errorf("phase %d: %+v, want %+v", i, got.Phases[i], ref.res.Phases[i])
		}
	}
	if got.Digest != ref.digest {
		t.Errorf("machine digest %s, want %s", got.Digest, ref.digest)
	}
	if len(events) != len(ref.events) {
		t.Fatalf("%d trace events, want %d", len(events), len(ref.events))
	}
	for i := range events {
		if events[i] != ref.events[i] {
			t.Fatalf("trace event %d: %+v, want %+v", i, events[i], ref.events[i])
		}
	}
}

func TestDistDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in full mode only")
	}
	for _, name := range []string{"meshsmooth4.wl", "stencil7x2.wl", "redblack.wl"} {
		t.Run(name, func(t *testing.T) {
			sc := loadScenario(t, name)
			engines := map[string]core.Options{
				"naive":    {NaiveEngine: true},
				"event":    {},
				"parallel": {Workers: 4},
			}
			refs := map[string]refOutcome{}
			for eng, o := range engines {
				refs[eng] = refRun(t, sc, o)
			}
			// All in-process engines must agree with each other first.
			for eng, ref := range refs {
				if ref.digest != refs["event"].digest {
					t.Fatalf("engine %s digest %s, event engine %s", eng, ref.digest, refs["event"].digest)
				}
			}
			for _, shards := range []int{2, 3} {
				got, events := distRun(t, sc, Config{Shards: shards, CheckpointEvery: 256})
				compareOutcome(t, refs["event"], got, events)
			}
		})
	}
}

func TestMain(m *testing.M) {
	MaybeWorker() // the test binary doubles as the process-worker executable
	os.Exit(m.Run())
}

// TestDistRecoverFromCrash injects a deterministic worker panic mid-run:
// the coordinator must classify it as a crash, rewind to the latest
// checkpoint, respawn, disarm the fired fault, and finish with results
// bit-identical to an undisturbed in-process run.
func TestDistRecoverFromCrash(t *testing.T) {
	sc := loadScenario(t, "meshsmooth4.wl")
	ref := refRun(t, sc, core.Options{})
	got, events := distRun(t, sc, Config{
		Shards:          2,
		CheckpointEvery: 200,
		Chaos:           []ChaosSpec{{Node: 1, Cycle: 600, Kind: "panic"}, {Node: 3, Cycle: 2000, Kind: "panic"}},
	})
	compareOutcome(t, ref, got, events)
	if got.Recoveries < 2 {
		t.Errorf("recoveries = %d, want >= 2", got.Recoveries)
	}
	crashes := 0
	for _, f := range got.Failures {
		if f.Class == guard.ClassCrash {
			crashes++
		}
	}
	if crashes < 2 {
		t.Errorf("crash failures = %d (%+v), want >= 2", crashes, got.Failures)
	}
}

// TestDistRecoverFromStall wedges a worker mid-step while its heartbeats
// keep flowing: the window deadline must classify it as a stall (not
// lost), and recovery must still produce bit-identical results.
func TestDistRecoverFromStall(t *testing.T) {
	sc := loadScenario(t, "meshsmooth4.wl")
	ref := refRun(t, sc, core.Options{})
	got, events := distRun(t, sc, Config{
		Shards:          2,
		CheckpointEvery: 200,
		WindowTimeout:   400 * time.Millisecond,
		HeartbeatEvery:  50 * time.Millisecond,
		SilenceTimeout:  2 * time.Second,
		Chaos:           []ChaosSpec{{Node: 2, Cycle: 900, Kind: "hang"}},
	})
	compareOutcome(t, ref, got, events)
	stalls := 0
	for _, f := range got.Failures {
		if f.Class == guard.ClassStallTimeout {
			stalls++
		}
	}
	if stalls == 0 {
		t.Errorf("no stall-class failure recorded: %+v", got.Failures)
	}
}

// TestDistRecoverFromLostLocal severs a worker's pipe mid-run (the
// local stand-in for a SIGKILLed process): lost-connection class, then
// bit-identical recovery.
func TestDistRecoverFromLost(t *testing.T) {
	sc := loadScenario(t, "redblack.wl")
	ref := refRun(t, sc, core.Options{})
	got, events := distRun(t, sc, Config{
		Shards:          2,
		CheckpointEvery: 128,
		Kill:            []KillSpec{{Shard: 1, Cycle: 500}},
	})
	compareOutcome(t, ref, got, events)
	lost := 0
	for _, f := range got.Failures {
		if f.Class == guard.ClassLost {
			lost++
		}
	}
	if lost == 0 {
		t.Errorf("no lost-class failure recorded: %+v", got.Failures)
	}
}

// TestDistRecoveryLimit proves the coordinator gives up instead of
// flapping: a chain of faults longer than the recovery cap — each fired
// fault is disarmed, but the next one is waiting — must end in a
// terminal recovery-limit error, not an endless rewind loop.
func TestDistRecoveryLimit(t *testing.T) {
	sc := loadScenario(t, "stencil7x2.wl")
	_, _, err := RunScenario(sc, core.Options{}, Config{
		Shards:          1,
		Launcher:        LocalLauncher{},
		CheckpointEvery: -1, // entry checkpoint only
		MaxRecoveries:   2,
		Chaos: []ChaosSpec{
			{Node: 0, Cycle: 5, Kind: "panic"},
			{Node: 0, Cycle: 10, Kind: "panic"},
			{Node: 0, Cycle: 15, Kind: "panic"},
		},
	})
	if err == nil || !strings.Contains(err.Error(), "recovery limit") {
		t.Fatalf("err = %v, want recovery-limit error", err)
	}
	if c := guard.Classify(err); c != guard.ClassCrash {
		t.Errorf("recovery-limit error classifies as %q, want the cause's class %q", c, guard.ClassCrash)
	}
}

// TestBudgetExactAcrossTransports: one budget clamp (guard.Supervisor.
// RunPhase) serves both transports, so the same scenario with the same
// `budget N` is cut off at machine cycle N exactly — and in the identical
// machine state — in process and distributed: for N below one quiet
// window (the cycle-by-cycle tail from the first leg), N that leaves a
// later leg less than a quiet window, N mid-phase, and N above the
// scenario's total (no cutoff, equal results).
func TestBudgetExactAcrossTransports(t *testing.T) {
	path := filepath.Join("..", "..", "testdata", "workloads", "redblack.wl")
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	withBudget := func(n int64) *core.Scenario {
		src := strings.Replace(string(text), "\nmesh 4\n", fmt.Sprintf("\nmesh 4\nbudget %d\n", n), 1)
		sc, err := core.ScenarioFromDSL(path, src)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Plan.CycleBudget != n {
			t.Fatalf("budget directive not applied: plan budget %d, want %d", sc.Plan.CycleBudget, n)
		}
		return sc
	}
	free, err := loadScenario(t, "redblack.wl").Run(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(free.Phases) < 2 {
		t.Fatalf("redblack.wl has %d run phases; the test needs a later leg", len(free.Phases))
	}
	firstLegEnd := free.Phases[0].Cycles + machine.QuietWindow

	for _, c := range []struct {
		name   string
		budget int64
		cutoff bool
	}{
		{"below one quiet window", machine.QuietWindow - 12, true},
		{"later leg gets less than a quiet window", firstLegEnd + 10, true},
		{"mid-phase", free.TotalCycles / 2, true},
		{"above the total", free.TotalCycles + 1000, false},
	} {
		sc := withBudget(c.budget)
		inRes, inSim, inErr := sc.RunSim(core.Options{})
		dRes, dSim, dErr := RunScenario(sc, core.Options{}, Config{Shards: 2, Launcher: LocalLauncher{}})
		if !c.cutoff {
			if inErr != nil || dErr != nil {
				t.Errorf("%s (budget %d): in-process err %v, dist err %v; want neither", c.name, c.budget, inErr, dErr)
			} else if inRes.TotalCycles != dRes.TotalCycles || inRes.Digest != dRes.Digest {
				t.Errorf("%s: in-process %d cycles digest %s, dist %d cycles digest %s",
					c.name, inRes.TotalCycles, inRes.Digest, dRes.TotalCycles, dRes.Digest)
			}
			continue
		}
		var inSE, dSE *guard.StallError
		if !errors.As(inErr, &inSE) || !errors.As(dErr, &dSE) || inSE.Kind != guard.StallBudget || dSE.Kind != guard.StallBudget {
			t.Errorf("%s (budget %d): in-process err %v, dist err %v; want StallBudget from both", c.name, c.budget, inErr, dErr)
			continue
		}
		if inSE.Cycle != c.budget || dSE.Cycle != c.budget {
			t.Errorf("%s: cut off at cycle %d in process, %d distributed; want exactly the budget %d",
				c.name, inSE.Cycle, dSE.Cycle, c.budget)
		}
		inDigest, err1 := inSim.M.Digest()
		dDigest, err2 := dSim.M.Digest()
		if err1 != nil || err2 != nil || inDigest != dDigest {
			t.Errorf("%s: machine state at the cutoff differs: in-process %s (%v), dist %s (%v)",
				c.name, inDigest, err1, dDigest, err2)
		}
	}
}

// TestOneDigest: there is one state fingerprint (machine.Digest), so the
// three front ends that report one — Scenario.Run, the distributed
// runner, and an msimd session (unsliced, so it executes the same bound
// sequence) — agree on the same scenario.
func TestOneDigest(t *testing.T) {
	sc := loadScenario(t, "meshsmooth4.wl")
	inProcess, err := sc.Run(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	distributed, _ := distRun(t, sc, Config{Shards: 2})

	sv, err := serve.New(serve.Config{Spool: t.TempDir(), Workers: 1, CheckpointEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Drain()
	text, err := os.ReadFile(sc.Name)
	if err != nil {
		t.Fatal(err)
	}
	session, err := sv.Submit("meshsmooth4.wl", string(text))
	if err != nil {
		t.Fatal(err)
	}
	<-session.Done()
	info := session.Info()
	if info.State != serve.StateDone {
		t.Fatalf("session: %s (%s: %s)", info.State, info.FailureClass, info.Failure)
	}

	if inProcess.Digest == "" || inProcess.Digest != distributed.Digest || inProcess.Digest != info.Digest {
		t.Errorf("digests disagree:\n  Scenario.Run   %s\n  dist.RunResult %s\n  msimd session  %s",
			inProcess.Digest, distributed.Digest, info.Digest)
	}
}
