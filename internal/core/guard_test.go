package core

// Supervised-run legs of the determinism matrix, and the scenario-level
// watchdog directives (deadline/budget). Supervision (internal/guard)
// must be observationally free: a scenario run with watchdogs armed is
// bit-identical to one without, under every engine. The watchdogs
// themselves must fire deterministically (budget) and classify correctly
// (deadline), and a budget cutoff with Supervise.DumpPath set must leave
// behind a snapshot a fresh machine can restore.

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/guard"
)

// spinScenario never completes: every node increments forever.
const spinScenario = `
workload "spin forever"
mesh 2

program spin
spin:
    add i1, i1, #1
    br spin
end

load spin on all
run 1000000000
expect reg node=0 reg=1 value=0
`

// TestSupervisedDeterminismEngines: running a checked-in scenario with
// the full supervision stack armed (wall-clock watchdog + cycle budget,
// both far from firing) yields the identical fingerprint as the
// unarmed run, under every engine mode.
func TestSupervisedDeterminismEngines(t *testing.T) {
	armed := Options{Supervise: guard.Options{Timeout: 5 * time.Minute, CycleBudget: 1 << 39}}
	var ref string
	for i, m := range engineModes {
		plain, err := underMode(m, func() (string, error) {
			return scenarioFingerprint(t, "ringreduce.wl")
		})
		if err != nil {
			t.Fatalf("unarmed (%s engine): %v", m.name, err)
		}
		supervised, err := underMode(m, func() (string, error) {
			sc, err := ScenarioFromFile(workloadDir + "/ringreduce.wl")
			if err != nil {
				t.Fatal(err)
			}
			res, err := sc.Run(armed)
			if err != nil {
				return "", err
			}
			fp := ""
			for _, ph := range res.Phases {
				fp += fmt.Sprintf("%s=%d ", ph.Name, ph.Cycles)
			}
			return fp + fmt.Sprintf("total=%d stats=%+v", res.TotalCycles, res.Stats), nil
		})
		if err != nil {
			t.Fatalf("supervised (%s engine): %v", m.name, err)
		}
		if supervised != plain {
			t.Fatalf("supervision perturbed the run (%s engine):\n--- unarmed ---\n%s\n--- armed ---\n%s",
				m.name, plain, supervised)
		}
		if i == 0 {
			ref = supervised
		} else if supervised != ref {
			t.Fatalf("supervised run diverged between engines (%s vs %s):\n%s\nvs\n%s",
				engineModes[0].name, m.name, ref, supervised)
		}
	}
}

// TestScenarioDeadlineDirective: a .wl deadline cuts off a livelocked
// scenario as a wall-clock stall-timeout; the caller's Supervise.Timeout
// overrides the file's value.
func TestScenarioDeadlineDirective(t *testing.T) {
	src := "\ndeadline 60s\n" + spinScenario
	sc, err := ScenarioFromDSL("spin.wl", src)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Plan.Deadline != 60*time.Second {
		t.Fatalf("deadline lowered to %v, want 60s", sc.Plan.Deadline)
	}
	// Override with a short caller timeout so the test is fast.
	_, err = sc.Run(Options{Supervise: guard.Options{Timeout: 50 * time.Millisecond}})
	var se *guard.Failure
	if !errors.As(err, &se) || se.Class != guard.ClassStallTimeout {
		t.Fatalf("want a stall-timeout, got %v", err)
	}
	if se.Diagnostic == "" {
		t.Fatal("no diagnostic attached")
	}
}

// TestScenarioBudgetDirective: a .wl budget stops the scenario at a
// deterministic cycle with a budget failure.
func TestScenarioBudgetDirective(t *testing.T) {
	src := "\nbudget 2000 + 1000\n" + spinScenario
	stopAt := func() int64 {
		sc, err := ScenarioFromDSL("spin.wl", src)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Plan.CycleBudget != 3000 {
			t.Fatalf("budget lowered to %d, want 3000", sc.Plan.CycleBudget)
		}
		_, err = sc.Run(Options{})
		var se *guard.Failure
		if !errors.As(err, &se) || se.Class != guard.ClassBudget {
			t.Fatalf("want a budget failure, got %v", err)
		}
		return se.Cycle
	}
	if a, b := stopAt(), stopAt(); a != b || a != 3000 {
		t.Fatalf("budget stop cycles %d/%d, want exactly 3000 twice", a, b)
	}
}

// TestScenarioCrashDumpRestores: the dump written when a scenario blows
// its budget is a regular snapshot a fresh same-shape machine restores.
func TestScenarioCrashDumpRestores(t *testing.T) {
	dump := t.TempDir() + "/stall.msnap"
	sc, err := ScenarioFromDSL("spin.wl", spinScenario)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sc.Run(Options{Supervise: guard.Options{CycleBudget: 2000, DumpPath: dump}})
	var se *guard.Failure
	if !errors.As(err, &se) || se.Class != guard.ClassBudget {
		t.Fatalf("want a budget failure, got %v", err)
	}
	if se.DumpPath != dump {
		t.Fatalf("dump path %q, want %q", se.DumpPath, dump)
	}
	data, err := os.ReadFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSim(Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.M.Close()
	if err := s.M.Restore(data); err != nil {
		t.Fatalf("crash dump does not restore: %v", err)
	}
	if s.M.Cycle != 2000 {
		t.Fatalf("restored at cycle %d, want the 2000-cycle budget point", s.M.Cycle)
	}
	// The restored machine resumes (the spin never completes, so a short
	// bounded run that returns cleanly is the resumption proof).
	if _, err := s.M.Run(100); err == nil {
		t.Fatal("spin workload claimed completion after restore")
	}
}

// TestBadWatchdogDirectives: parse/lowering errors for the new
// directives are positional.
func TestBadWatchdogDirectives(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"deadline-unit", "deadline 5 parsecs\nmesh 1\n", "unit"},
		{"deadline-dup", "deadline 5s\ndeadline 6s\nmesh 1\n", "duplicate"},
		{"budget-dup", "budget 10\nbudget 20\nmesh 1\n", "duplicate"},
		{"budget-zero", "mesh 1\nbudget 0\n", "out of range"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ScenarioFromDSL("bad.wl", c.src)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("want error containing %q, got %v", c.want, err)
			}
		})
	}
}
