package core_test

// Clone ≡ Restore(Save) (DESIGN.md, "Checkpoint/restore"): Fork copies
// the machine structurally instead of round-tripping it through a byte
// stream, and the bit-identity argument of every forking caller — sweep
// points, Table 1's write cells — rests on the two being
// indistinguishable. For generated scenarios stopped mid-run and for the
// staged Table 1 machines, a clone and a byte-path restore of the same
// instant must agree on the digest at the fork and on the digest,
// statistics and trace timeline of their continuations (and with the
// original's own continuation), under every engine.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/wgen"
	"repro/internal/workload"
)

var forkEngines = []struct {
	name string
	opts core.Options
}{
	{"naive", core.Options{NaiveEngine: true}},
	{"event", core.Options{}},
	{"parallel2", core.Options{Workers: 2}},
	{"parallel3", core.Options{Workers: 3}},
}

// advance executes plan steps under a supervisor, whole run phases at a
// time, until the next step is run phase number stopAt (counting from 0)
// or the plan is done.
func advance(t *testing.T, sc *core.Scenario, s *core.Sim, run *core.ScenarioRun, stopAt int) {
	t.Helper()
	sup := guard.New(s.M, guard.Options{})
	err := sup.Do(func() error {
		for !run.Done() {
			pos := run.Position()
			if sc.Plan.Steps[pos.Next].Kind == workload.PlanRun && len(pos.Phases) == stopAt {
				return nil
			}
			if _, err := run.Advance(sup, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// continuation finishes run and fingerprints everything observable about
// it: phases, totals, statistics, final digest, and the timeline of the
// events recorded from index from on.
func continuation(t *testing.T, sc *core.Scenario, s *core.Sim, run *core.ScenarioRun, from int) string {
	t.Helper()
	advance(t, sc, s, run, -1)
	res := run.Result()
	return fmt.Sprintf("phases=%v total=%d checks=%d stats=%+v digest=%s\n%s",
		res.Phases, res.TotalCycles, res.Checks, res.Stats, digestOf(t, s),
		s.Recorder.Timeline(s.Recorder.Events[from:]))
}

func digestOf(t *testing.T, s *core.Sim) string {
	t.Helper()
	d, err := s.M.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// cloneAndRestore returns a Fork of s and a fresh simulator built by
// boot restored from s's snapshot, after checking that all three agree
// at the instant of the fork.
func cloneAndRestore(t *testing.T, s *core.Sim, boot func() (*core.Sim, error)) (clone, restored *core.Sim) {
	t.Helper()
	clone, err := s.Fork()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(clone.M.Close)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if restored, err = boot(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(restored.M.Close)
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	want := digestOf(t, s)
	if got := digestOf(t, clone); got != want {
		t.Fatalf("clone digest %s differs from the original's %s at the fork", got, want)
	}
	if got := digestOf(t, restored); got != want {
		t.Fatalf("restored digest %s differs from the original's %s at the fork", got, want)
	}
	return clone, restored
}

func TestSimForkMatchesRestore(t *testing.T) {
	// Seed 0 runs a user-mode thread on granted pointers, 3 a message
	// storm on four nodes, 5 and 8 are sweeps (run as their first point:
	// staging prefix, then the point's legs), 13 runs with software
	// caching.
	for _, seed := range []uint64{0, 3, 5, 8, 13} {
		name, src := wgen.Source(seed)
		sc, err := core.ScenarioFromDSL(name+".wl", src)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Plan.Sweep != nil {
			sc = &core.Scenario{Name: sc.Name, Plan: sc.Plan.PointPlan(0)}
		}
		phases := 0
		for _, st := range sc.Plan.Steps {
			if st.Kind == workload.PlanRun {
				phases++
			}
		}
		// Fork early in the first run phase and deeper into the last.
		for _, at := range []struct{ phase, cycles int }{{0, 30}, {phases - 1, 90}} {
			for _, eng := range forkEngines {
				t.Run(fmt.Sprintf("seed%d/phase%d+%d/%s", seed, at.phase, at.cycles, eng.name), func(t *testing.T) {
					s, err := sc.NewSim(eng.opts)
					if err != nil {
						t.Fatal(err)
					}
					defer s.M.Close()
					run := sc.NewRun(s)
					advance(t, sc, s, run, at.phase)
					// Into the phase under the configured engine (Step
					// uses the parallel chip phase, so the fork also has
					// deferred idle bookkeeping to materialize).
					s.M.WakeAll()
					for i := 0; i < at.cycles; i++ {
						s.M.Step()
					}
					clone, restored := cloneAndRestore(t, s, func() (*core.Sim, error) { return sc.NewSim(eng.opts) })

					pos := run.Position()
					resume := func(f *core.Sim) *core.ScenarioRun {
						r := sc.NewRun(f)
						if err := r.Seek(pos); err != nil {
							t.Fatal(err)
						}
						return r
					}
					cloneRun, restoredRun := resume(clone), resume(restored)
					want := continuation(t, sc, restored, restoredRun, 0)
					if got := continuation(t, sc, clone, cloneRun, 0); got != want {
						t.Errorf("clone's continuation diverged from the restored machine's:\n%.2000s\nvs\n%.2000s", got, want)
					}
					if got := continuation(t, sc, s, run, len(s.Recorder.Events)); got != want {
						t.Errorf("original's continuation diverged from the restored machine's:\n%.2000s\nvs\n%.2000s", got, want)
					}
				})
			}
		}
	}

	// The staged Table 1 machines: the write cell runs on a fork.
	for class := core.AccessClass(0); class < core.NumAccessClasses; class++ {
		for _, eng := range forkEngines {
			t.Run(fmt.Sprintf("table1/%s/%s", class, eng.name), func(t *testing.T) {
				opts := eng.opts
				opts.Nodes = 2
				s, err := core.NewSim(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer s.M.Close()
				addr := uint64(16)
				if class > core.LocalLTLBMiss {
					addr = s.HomeBase(1) + 16
				}
				if err := core.StageAccess(s, class, addr); err != nil {
					t.Fatal(err)
				}
				clone, restored := cloneAndRestore(t, s, func() (*core.Sim, error) { return core.NewSim(opts) })
				cell := func(f *core.Sim, from int) string {
					cycles, err := core.TimeWrite(f, class, addr)
					if err != nil {
						t.Fatal(err)
					}
					return fmt.Sprintf("write=%d stats=%+v digest=%s\n%s", cycles, f.Stats(), digestOf(t, f),
						f.Recorder.Timeline(f.Recorder.Events[from:]))
				}
				want := cell(restored, 0)
				if got := cell(clone, 0); got != want {
					t.Errorf("clone's write cell diverged from the restored machine's:\n%.2000s\nvs\n%.2000s", got, want)
				}
				if got := cell(s, len(s.Recorder.Events)); got != want {
					t.Errorf("original's write cell diverged from the restored machine's:\n%.2000s\nvs\n%.2000s", got, want)
				}
			})
		}
	}
}
