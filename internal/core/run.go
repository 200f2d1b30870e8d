package core

// Resumable scenario execution: a ScenarioRun is Scenario.Run taken apart
// into externally driven quanta, so a caller can interleave its own work
// — periodic checkpoints, progress streaming, drain checks — between
// steps without changing a single simulated result. This is the
// execution core of the msimd session service (internal/serve, DESIGN.md
// "The simulation service"): the service checkpoints a session at quantum
// boundaries and, after a contained crash, restores the snapshot into a
// fresh machine and Seeks the run back to the recorded position, from
// where execution is bit-identical to a run that was never interrupted.
//
// A quantum is either one non-run plan step (map, poke, load, expect,
// check) or one slice of a run phase. Slicing is itself deterministic:
// for a fixed slice size, the sequence of machine.Run bounds — and
// therefore every simulated cycle, including the completion-detection
// quiet windows — is a pure function of the plan, so two runs of the same
// scenario under the same slice size agree bit for bit, whether or not
// one of them was checkpointed, killed, restored, and resumed in the
// middle. (Different slice sizes are different — but equally valid —
// executions: the quiet-window padding between slices lands at different
// cycles. Scenario.Run uses unsliced phases, the historical behavior.)

import (
	"errors"
	"fmt"

	"repro/internal/guard"
	"repro/internal/machine"
	"repro/internal/workload"
)

// ScenarioRun is an in-progress execution of a Scenario on one simulator.
// It is not concurrency-safe: one Advance at a time, like the machine it
// drives. Create one with Scenario.NewRun.
type ScenarioRun struct {
	sc  *Scenario
	s   *Sim
	env workload.Env
	res ScenarioResult

	next     int   // index of the next plan step to execute
	phaseRan int64 // cycles consumed by a partially executed run phase at next
}

// NewRun prepares a stepwise execution of the scenario on s, positioned
// at the first plan step. The simulator must have been booted for this
// scenario (Scenario.NewSim); the caller drives it with Advance.
func (sc *Scenario) NewRun(s *Sim) *ScenarioRun {
	return &ScenarioRun{sc: sc, s: s, env: workload.Env{
		Nodes:              s.M.NumNodes(),
		HomeBase:           s.HomeBase,
		DIPRemoteWrite:     s.RT.DIPRemoteWrite,
		DIPRemoteWriteSync: s.RT.DIPRemoteWriteSync,
	}}
}

// Done reports whether every plan step has completed.
func (r *ScenarioRun) Done() bool { return r.next >= len(r.sc.Plan.Steps) }

// Pos reports the resume position: the index of the next plan step and
// the cycles already consumed by a partially executed run phase at that
// index (0 unless the last Advance sliced a phase). Together with a
// machine snapshot taken at the same quantum boundary, Pos is everything
// a checkpoint needs to Seek a fresh run back to this point.
func (r *ScenarioRun) Pos() (step int, phaseCycles int64) { return r.next, r.phaseRan }

// Phases returns the per-phase results recorded so far. The returned
// slice is the run's own; callers must not mutate it.
func (r *ScenarioRun) Phases() []PhaseResult { return r.res.Phases }

// Checks returns the count of expect/check steps that have passed.
func (r *ScenarioRun) Checks() int { return r.res.Checks }

// Seek repositions the run to a checkpointed position: the next step
// index and mid-phase cycle count from Pos, and the results accumulated
// before the checkpoint. The simulator must already hold the matching
// machine snapshot (machine.Restore); Seek validates only the position.
func (r *ScenarioRun) Seek(step int, phaseCycles int64, phases []PhaseResult, checks int) error {
	if step < 0 || step > len(r.sc.Plan.Steps) {
		return fmt.Errorf("core: seek to step %d of a %d-step plan", step, len(r.sc.Plan.Steps))
	}
	if phaseCycles < 0 {
		return fmt.Errorf("core: seek to negative phase position %d", phaseCycles)
	}
	if phaseCycles > 0 && (step >= len(r.sc.Plan.Steps) || r.sc.Plan.Steps[step].Kind != workload.PlanRun) {
		return fmt.Errorf("core: seek mid-phase (%d cycles) into step %d, which is not a run phase", phaseCycles, step)
	}
	if checks < 0 {
		return fmt.Errorf("core: seek with negative check count %d", checks)
	}
	r.next = step
	r.phaseRan = phaseCycles
	r.res.Phases = append(r.res.Phases[:0], phases...)
	r.res.Checks = checks
	return nil
}

// Advance executes one quantum under the supervisor: one non-run plan
// step, or one slice of the current run phase — up to maxSlice cycles
// when maxSlice > 0, the phase's whole remaining budget otherwise. It
// reports whether the quantum advanced the machine (a run-phase slice),
// which is when a checkpointing caller should snapshot: the machine is
// between cycles and Pos names the position exactly.
//
// The slicing arithmetic is engine-independent: sup.RunPhase has
// Machine.Run's contract whatever runs its legs (the machine in process,
// the distributed coordinator via guard.NewOver), and the supervisor's
// cycle budget clamps run slices exactly as it clamps whole phases. For
// the panic-containment and watchdog contracts to hold, call Advance
// inside the supervisor's Do (Drive does). Errors
// follow Scenario.Run: supervision failures (any guard.Class but
// scenario, and machine.ErrStopped) pass through unwrapped, everything
// else carries the step's source position.
func (r *ScenarioRun) Advance(sup *guard.Supervisor, maxSlice int64) (ranPhase bool, err error) {
	if r.Done() {
		return false, nil
	}
	st := &r.sc.Plan.Steps[r.next]
	if st.Kind != workload.PlanRun {
		if err := r.sc.step(r.s, r.env, st, &r.res); err != nil {
			return false, err
		}
		r.next++
		return false, nil
	}

	// One slice of the run phase. The slice bound is a pure function of
	// (budget, phaseRan, maxSlice), so a resumed run re-derives the exact
	// bound sequence of an uninterrupted one.
	leg := st.Budget - r.phaseRan
	if leg < 1 {
		// Quiet-window padding of earlier slices overshot the leg budget;
		// give the phase one last cycle to prove completion, exactly as a
		// (deterministic) rerun of this position would.
		leg = 1
	}
	bound := leg
	sliced := maxSlice > 0 && maxSlice < leg
	if sliced {
		bound = maxSlice
	}
	n, err := sup.RunPhase(bound)
	r.phaseRan += n
	if err != nil {
		if sliced && errors.Is(err, machine.ErrCycleLimit) {
			// Only the slice expired, not the phase's own budget: the
			// phase continues at the next Advance.
			return true, nil
		}
		// Supervision failures — watchdog cutoffs, stop requests, shard
		// failures that outlived the recovery cap — must reach the
		// supervisor unwrapped: the positional formatting would break
		// errors.As/Is and guard.Classify, and rob Do of the chance to
		// attach diagnostics and the dump. Only the scenario's own
		// failures get the step's source position.
		if guard.Classify(err) != guard.ClassScenario || errors.Is(err, machine.ErrStopped) {
			return true, err
		}
		return true, fmt.Errorf("%s: %v", st.Pos, err)
	}
	name := st.Phase
	if name == "" {
		name = fmt.Sprintf("phase%d", len(r.res.Phases))
	}
	r.res.Phases = append(r.res.Phases, PhaseResult{Name: name, Cycles: r.phaseRan})
	r.phaseRan = 0
	r.next++
	return true, nil
}

// Drive is the one loop every front end runs a plan with (Scenario.Run,
// sweep points, dist.RunScenario, msimd sessions): one sup.Do that
// Advances quantum by quantum until Done — run phases in slices of at
// most slice cycles, whole phases when slice is 0 — and calls after, when
// not nil, at every quantum boundary with Advance's ranPhase. An error
// from after ends the run and comes back as Do returns it. The run's
// bounds are the supervisor's: its wall-clock Timeout and its CycleBudget,
// which RunPhase clamps exactly, last slice included. On success the
// result carries the final machine Digest.
func (r *ScenarioRun) Drive(sup *guard.Supervisor, slice int64, after func(ran bool) error) (*ScenarioResult, error) {
	var res *ScenarioResult
	err := sup.Do(func() error {
		for !r.Done() {
			ran, err := r.Advance(sup, slice)
			if err == nil && after != nil {
				err = after(ran)
			}
			if err != nil {
				return err
			}
		}
		res = r.Result()
		var err error
		res.Digest, err = r.s.M.Digest()
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Result finalizes and returns the scenario result. Meaningful once Done
// reports true; the totals are read from the machine at call time.
func (r *ScenarioRun) Result() *ScenarioResult {
	r.res.TotalCycles = r.s.M.Cycle
	r.res.Stats = r.s.Stats()
	out := r.res
	return &out
}
