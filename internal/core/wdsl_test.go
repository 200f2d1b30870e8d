package core

// Tests for the workload-DSL execution path: every checked-in .wl
// scenario must compile and pass its own expectations, and the DSL
// re-expressions of the stencil / loopsync / mesh-smooth experiment legs
// must produce bit-identical simulated metrics to the experiment harness
// under every engine (the DSL legs of the determinism matrix).

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/workload"
)

const workloadDir = "../../testdata/workloads"

// TestScenarioFiles compiles and runs every checked-in scenario.
func TestScenarioFiles(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(workloadDir, "*.wl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 9 {
		t.Fatalf("expected at least 9 checked-in scenarios, found %d", len(files))
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			sc, err := ScenarioFromFile(path)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sc.Run(Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Phases) == 0 {
				t.Error("scenario ran no phases")
			}
			if res.Checks == 0 {
				t.Error("scenario declared no expectations")
			}
			for _, ph := range res.Phases {
				if ph.Cycles <= 0 {
					t.Errorf("phase %s ran %d cycles", ph.Name, ph.Cycles)
				}
			}
		})
	}
}

// scenarioFingerprint runs a .wl file and renders its simulated metrics.
func scenarioFingerprint(t *testing.T, file string) (string, error) {
	t.Helper()
	sc, err := ScenarioFromFile(filepath.Join(workloadDir, file))
	if err != nil {
		t.Fatal(err) // compile errors are not engine-dependent
	}
	res, err := sc.Run(Options{})
	if err != nil {
		return "", err
	}
	fp := ""
	for _, ph := range res.Phases {
		fp += fmt.Sprintf("%s=%d ", ph.Name, ph.Cycles)
	}
	return fp + fmt.Sprintf("total=%d stats=%+v", res.TotalCycles, res.Stats), nil
}

// TestDSLMatchesHandWritten pins the DSL re-expressions of three
// experiment legs to the experiment harness itself — runStencil,
// runLoopSync and runMeshSmooth, the set-ups E3, E4 and E13/E14 run:
// identical cycle counts and machine statistics under the naive and event
// engines. This extends the determinism matrix to DSL legs —
// the DSL must be a notation, not a different workload — and an edit to an
// experiment's set-up breaks the pin.
func TestDSLMatchesHandWritten(t *testing.T) {
	cases := []struct {
		name string
		file string
		hand func() (string, error)
	}{
		{"Stencil7x2", "stencil7x2.wl", func() (string, error) {
			st, err := workload.Stencil7(2)
			if err != nil {
				return "", err
			}
			s, r, err := runStencil(st, 7)
			if err != nil {
				return "", err
			}
			if r.Value != r.Want {
				s.M.Close()
				return "", fmt.Errorf("stencil computed %v, want %v", r.Value, r.Want)
			}
			return harnessFingerprint(s, fmt.Sprintf("phase0=%d ", r.Cycles)), nil
		}},
		{"LoopSync2", "loopsync2.wl", func() (string, error) {
			s, cycles, err := runLoopSync(2, 100)
			if err != nil {
				return "", err
			}
			return harnessFingerprint(s, fmt.Sprintf("phase0=%d ", cycles)), nil
		}},
		{"MeshSmooth4", "meshsmooth4.wl", func() (string, error) {
			g, err := workload.NewMeshSmooth(4, 512)
			if err != nil {
				return "", err
			}
			s, stage, smooth, err := runMeshSmooth(Options{Nodes: 4}, g)
			if err != nil {
				return "", err
			}
			return harnessFingerprint(s, fmt.Sprintf("stage=%d smooth=%d ", stage, smooth)), nil
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && c.name == "MeshSmooth4" {
				t.Skip("mesh smooth matrix in -short mode")
			}
			var ref string
			for i, m := range engineModes {
				hand, err := underMode(m, c.hand)
				if err != nil {
					t.Fatalf("harness (%s engine): %v", m.name, err)
				}
				dsl, err := underMode(m, func() (string, error) {
					return scenarioFingerprint(t, c.file)
				})
				if err != nil {
					t.Fatalf("DSL (%s engine): %v", m.name, err)
				}
				if dsl != hand {
					t.Fatalf("DSL diverged from the experiment harness (%s engine):\n--- harness ---\n%s\n--- dsl ---\n%s",
						m.name, hand, dsl)
				}
				if i == 0 {
					ref = dsl
				} else if dsl != ref {
					t.Fatalf("DSL diverged between engines (%s vs %s):\n%s\nvs\n%s",
						engineModes[0].name, m.name, ref, dsl)
				}
			}
		})
	}
}

// harnessFingerprint renders a harness machine's simulated metrics the way
// scenarioFingerprint renders a scenario's — phase cycles (phases, each
// "name=cycles "), the total cycle counter, the machine statistics — and
// closes the machine.
func harnessFingerprint(s *Sim, phases string) string {
	defer s.M.Close()
	return fmt.Sprintf("%stotal=%d stats=%+v", phases, s.M.Cycle, s.Stats())
}
