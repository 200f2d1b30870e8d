package dist

// Scenario execution on the distributed engine: the same DSL pipeline as
// core.Scenario.Run, with the coordinator standing in for the machine as
// the supervisor's guard.LegRunner. Non-run plan steps (map, poke,
// load, expect, check) execute against the hub machine, which is always
// authoritative between run phases; run phases are farmed out to the
// shard workers and reassembled. A scenario run here is bit-identical to
// an in-process run — same cycle counts, same trace stream, same final
// machine digest — including runs that lost and recovered shards along
// the way.

import (
	"errors"

	"repro/internal/core"
	"repro/internal/guard"
)

// RunResult is a distributed scenario run's outcome: the scenario result
// plus the supervision history and the final machine digest.
type RunResult struct {
	*core.ScenarioResult
	Digest      string // machine.Digest of the final hub state
	Shards      int
	Failures    []FailureRecord
	Recoveries  int
	Checkpoints int
}

// RunScenario boots a hub simulator for sc, launches cfg.Shards workers,
// and drives the plan to completion distributed. The scenario file's
// cycle budget (or o.Supervise.CycleBudget) clamps run phases through the same
// guard.Supervisor.RunPhase an in-process run uses, so exhaustion is a
// *guard.StallError at the identical cycle. The returned Sim's machine
// is closed but readable, as after Scenario.RunSim.
func RunScenario(sc *core.Scenario, o core.Options, cfg Config) (*RunResult, *core.Sim, error) {
	if sc.Plan.Sweep != nil {
		// Sweep points fork the hub machine mid-run; sharded workers
		// can't follow a fork. Run sweeps in-process (Scenario.Run).
		return nil, nil, errors.New("dist: sweep scenarios are not supported on the distributed engine")
	}
	// The hub's chips never step; force the serial in-process engine so
	// no worker pool spins up under a machine used only as a state store.
	o.NaiveEngine = false
	o.Workers = 0
	s, err := sc.NewSim(o)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Trace == nil {
		// Worker trace events merge into the hub recorder, in the serial
		// engines' order, alongside hub-side (plan step) events.
		cfg.Trace = s.Recorder
	}
	co, err := New(s.M, cfg)
	if err != nil {
		s.M.Close()
		return nil, s, err
	}
	defer co.Close()

	budget := o.Supervise.CycleBudget
	if budget == 0 {
		budget = sc.Plan.CycleBudget
	}
	sup := guard.NewOver(co, s.M, guard.Options{CycleBudget: budget})

	run := sc.NewRun(s)
	for !run.Done() {
		if _, err := run.Advance(sup, 0); err != nil {
			s.M.Close()
			return nil, s, err
		}
	}
	res := run.Result()
	digest, err := s.M.Digest()
	s.M.Close()
	if err != nil {
		return nil, s, err
	}
	return &RunResult{
		ScenarioResult: res,
		Digest:         digest,
		Shards:         co.Shards(),
		Failures:       co.Failures(),
		Recoveries:     co.Recoveries(),
		Checkpoints:    co.Checkpoints(),
	}, s, nil
}
