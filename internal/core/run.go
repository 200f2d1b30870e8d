package core

// Resumable scenario execution: a ScenarioRun is Scenario.Run taken apart
// into externally driven quanta, so a caller can interleave its own work
// — periodic checkpoints, progress streaming, drain checks — between
// steps without changing a single simulated result. This is the
// execution core of the msimd session service (internal/serve, DESIGN.md
// "The simulation service"): the service checkpoints a session at quantum
// boundaries and, after a contained crash, restores the snapshot into a
// fresh machine and Seeks the run back to the recorded Position, from
// where execution is bit-identical to a run that was never interrupted.
//
// A quantum is either one non-run plan step (map, poke, load, expect,
// check) or one slice of a run phase. A run phase owns one
// machine.QuietLoop from its first cycle to its last, carried across
// slices in the Position; a slice only names the cycle its call stops at,
// so every slice length, and none, is the same execution.

import (
	"fmt"
	"math"

	"repro/internal/guard"
	"repro/internal/machine"
	"repro/internal/snap"
	"repro/internal/workload"
)

// ScenarioRun is an in-progress execution of a Scenario on one simulator.
// It is not concurrency-safe: one Advance at a time, like the machine it
// drives. Create one with Scenario.NewRun.
type ScenarioRun struct {
	sc  *Scenario
	s   *Sim
	env workload.Env
	pos Position
}

// Position is where a ScenarioRun stands between two quanta. With a
// machine snapshot taken at the same boundary it is everything a
// checkpoint needs to Seek a fresh run back to this point.
type Position struct {
	Next   int               // index of the next plan step
	Loop   machine.QuietLoop // the completion loop of the run phase at Next, once begun
	Checks int               // expect/check steps that have passed
	Phases []PhaseResult     // results of the run phases completed so far
}

// State walks the position: one field list that encodes and decodes.
func (p *Position) State(c *snap.Codec) {
	c.Int(&p.Next)
	p.Loop.State(c)
	c.Int(&p.Checks)
	n := c.Len(len(p.Phases), 1<<20)
	for i := 0; i < n; i++ {
		ph := snap.Elem(c, &p.Phases, i)
		c.String(&ph.Name, 1<<16)
		c.I64(&ph.Cycles)
	}
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
func (r *ScenarioRun) Done() bool { return r.pos.Next >= len(r.sc.Plan.Steps) }

// Position reports the resume position. Its Phases slice is the run's
// own; callers must not mutate it.
func (r *ScenarioRun) Position() Position { return r.pos }

// Seek repositions the run to a checkpointed Position. The simulator must
// already hold the matching machine snapshot (machine.Restore); Seek
// validates only the position.
func (r *ScenarioRun) Seek(p Position) error {
	steps := r.sc.Plan.Steps
	if p.Next < 0 || p.Next > len(steps) {
		return fmt.Errorf("core: seek to step %d of a %d-step plan", p.Next, len(steps))
	}
	if p.Loop.Begun() && (p.Next == len(steps) || steps[p.Next].Kind != workload.PlanRun) {
		return fmt.Errorf("core: seek mid-phase into step %d, which is not a run phase", p.Next)
	}
	if p.Checks < 0 {
		return fmt.Errorf("core: seek with negative check count %d", p.Checks)
	}
	p.Phases = append([]PhaseResult(nil), p.Phases...)
	r.pos = p
	return nil
}

// Advance executes one quantum under the supervisor: one non-run plan
// step, or one slice of the current run phase — until the phase ends or,
// when maxSlice > 0, the machine has advanced maxSlice cycles. It reports
// whether the quantum advanced the machine (a run-phase slice): the
// machine is then between cycles and Position names the point exactly,
// which is when a checkpointing caller should snapshot.
//
// sup.RunPhase runs the phase's loop on whatever runs the supervisor's
// legs (the machine, or the dist coordinator via guard.NewOver) and clamps
// a slice to the cycle budget. Call Advance inside sup.Do (Drive does) for
// panic containment and the watchdogs. A run phase's error carries the
// step's source position and wraps the cause, so every front end
// classifies it alike.
func (r *ScenarioRun) Advance(sup *guard.Supervisor, maxSlice int64) (ranPhase bool, err error) {
	if r.Done() {
		return false, nil
	}
	st := &r.sc.Plan.Steps[r.pos.Next]
	if st.Kind != workload.PlanRun {
		if err := r.sc.step(r.s, r.env, st, &r.pos.Checks); err != nil {
			return false, err
		}
		r.pos.Next++
		return false, nil
	}

	loop := &r.pos.Loop
	if !loop.Begun() {
		*loop = machine.NewLeg(st.Budget)
	}
	until := int64(math.MaxInt64)
	if maxSlice > 0 {
		until = r.s.M.Cycle + maxSlice
	}
	ended, err := sup.RunPhase(loop, until)
	if err != nil {
		// Wrapped, not flattened: guard.Classify, Do's forensics and
		// errors.Is(err, machine.ErrStopped) read through the position.
		return true, fmt.Errorf("%s: %w", st.Pos, err)
	}
	if !ended {
		return true, nil // the phase continues at the next Advance
	}
	name := st.Phase
	if name == "" {
		name = fmt.Sprintf("phase%d", len(r.pos.Phases))
	}
	r.pos.Phases = append(r.pos.Phases, PhaseResult{Name: name, Cycles: loop.Ran(r.s.M.Cycle)})
	*loop = machine.QuietLoop{}
	r.pos.Next++
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
	return &ScenarioResult{
		Phases:      r.pos.Phases,
		TotalCycles: r.s.M.Cycle,
		Checks:      r.pos.Checks,
		Stats:       r.s.Stats(),
	}
}
