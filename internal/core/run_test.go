package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/guard"
	"repro/internal/machine"
)

// driveSliced runs sc to completion in maxSlice-cycle quanta, invoking
// onQuantum after every machine-advancing quantum, and returns the result
// plus a final state snapshot.
func driveSliced(t *testing.T, sc *Scenario, maxSlice int64, onQuantum func(r *ScenarioRun, s *Sim)) (*ScenarioResult, []byte) {
	t.Helper()
	s, err := sc.NewSim(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.M.Close()
	run := sc.NewRun(s)
	for !run.Done() {
		sup := guard.New(s.M, guard.Options{})
		var ran bool
		err := sup.Do(func() error {
			var e error
			ran, e = run.Advance(sup, maxSlice)
			return e
		})
		if err != nil {
			t.Fatal(err)
		}
		if ran && onQuantum != nil {
			onQuantum(run, s)
		}
	}
	var buf bytes.Buffer
	if err := s.M.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return run.Result(), buf.Bytes()
}

// TestScenarioRunSlicedResume pins the service's recovery contract at the
// core level: a sliced scenario run that is checkpointed at a quantum
// boundary, discarded, restored into a fresh simulator, and Seeked back
// to the recorded position finishes with results and final machine state
// bit-identical to the same sliced run left uninterrupted.
func TestScenarioRunSlicedResume(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "workloads", "loopsync2.wl"))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ScenarioFromDSL("loopsync2.wl", string(src))
	if err != nil {
		t.Fatal(err)
	}
	const slice = 257 // deliberately odd, several slices per phase

	// Uninterrupted sliced run: the baseline.
	wantRes, wantState := driveSliced(t, sc, slice, nil)

	// Interrupted run: checkpoint at every quantum, abandon the machine
	// after the third, resume from the checkpoint on a fresh simulator.
	type ckpt struct {
		pos     Position
		machine []byte
	}
	var last ckpt
	quanta := 0
	s1, err := sc.NewSim(Options{})
	if err != nil {
		t.Fatal(err)
	}
	run1 := sc.NewRun(s1)
	for !run1.Done() && quanta < 3 {
		sup := guard.New(s1.M, guard.Options{})
		var ran bool
		err := sup.Do(func() error {
			var e error
			ran, e = run1.Advance(sup, slice)
			return e
		})
		if err != nil {
			t.Fatal(err)
		}
		if !ran {
			continue
		}
		quanta++
		var buf bytes.Buffer
		if err := s1.M.Save(&buf); err != nil {
			t.Fatal(err)
		}
		pos := run1.Position()
		pos.Phases = append([]PhaseResult(nil), pos.Phases...)
		last = ckpt{pos: pos, machine: buf.Bytes()}
	}
	if quanta < 3 {
		t.Fatalf("scenario completed in %d run quanta; need more for a mid-run checkpoint", quanta)
	}
	s1.M.Close() // the "crashed" machine is discarded

	s2, err := sc.NewSim(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.M.Close()
	if err := s2.M.Restore(bytes.NewReader(last.machine)); err != nil {
		t.Fatal(err)
	}
	run2 := sc.NewRun(s2)
	if err := run2.Seek(last.pos); err != nil {
		t.Fatal(err)
	}
	for !run2.Done() {
		sup := guard.New(s2.M, guard.Options{})
		err := sup.Do(func() error {
			_, e := run2.Advance(sup, slice)
			return e
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	gotRes := run2.Result()
	var gotState bytes.Buffer
	if err := s2.M.Save(&gotState); err != nil {
		t.Fatal(err)
	}

	if gotRes.TotalCycles != wantRes.TotalCycles || gotRes.Checks != wantRes.Checks {
		t.Fatalf("resumed run: total %d cycles, %d checks; uninterrupted: %d cycles, %d checks",
			gotRes.TotalCycles, gotRes.Checks, wantRes.TotalCycles, wantRes.Checks)
	}
	if len(gotRes.Phases) != len(wantRes.Phases) {
		t.Fatalf("resumed run recorded %d phases, want %d", len(gotRes.Phases), len(wantRes.Phases))
	}
	for i := range gotRes.Phases {
		if gotRes.Phases[i] != wantRes.Phases[i] {
			t.Fatalf("phase %d: resumed %+v, uninterrupted %+v", i, gotRes.Phases[i], wantRes.Phases[i])
		}
	}
	if !bytes.Equal(gotState.Bytes(), wantState) {
		t.Fatalf("resumed run's final machine state differs from the uninterrupted run's")
	}
}

// TestScenarioRunSeekValidation exercises Seek's position checks.
func TestScenarioRunSeekValidation(t *testing.T) {
	sc, err := ScenarioFromDSL("seek.wl",
		"workload \"seek\"\nmesh 1\ngenerate sp spinloop iters=4\nload sp on node 0\nrun 1000\n")
	if err != nil {
		t.Fatal(err)
	}
	s, err := sc.NewSim(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.M.Close()
	run := sc.NewRun(s)
	midPhase := machine.NewLeg(1000)
	midPhase.Begin(0, machine.Activity{})
	if err := run.Seek(Position{Next: 99}); err == nil {
		t.Error("seek past the end of the plan accepted")
	}
	if err := run.Seek(Position{Next: 0, Loop: midPhase}); err == nil {
		t.Error("mid-phase seek into a non-run step accepted")
	}
	if err := run.Seek(Position{Next: 2, Loop: midPhase}); err == nil {
		t.Error("mid-phase seek past the last step accepted")
	}
	if err := run.Seek(Position{Next: 1, Checks: -1}); err == nil {
		t.Error("negative check count accepted")
	}
	if err := run.Seek(Position{Next: 1, Loop: midPhase}); err != nil {
		t.Errorf("mid-phase seek into the run step rejected: %v", err)
	}
	if err := run.Seek(Position{}); err != nil {
		t.Errorf("seek to the start rejected: %v", err)
	}
}
