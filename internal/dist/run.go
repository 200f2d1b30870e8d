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

// RunResult is a distributed scenario run's outcome: the scenario result,
// final machine digest included, plus the supervision history.
type RunResult struct {
	*core.ScenarioResult
	Shards      int
	Failures    []ShardFailure
	Recoveries  int
	Checkpoints int
}

// RunScenario boots a hub simulator for sc, launches cfg.Shards workers,
// and drives the plan to completion distributed, through the driver and
// under the supervision bounds an in-process run has (Scenario.Supervision:
// o.Supervise, else the file's deadline/budget). A budget is exhausted at
// the identical cycle as in process; a deadline stops the federation at
// its next window head. The returned Sim's machine is closed but readable,
// as after Scenario.RunSim, except after a hang (guard.IsHang), when the
// wedged run still owns it and the federation. The hub's chips never step:
// o.NaiveEngine should be false.
func RunScenario(sc *core.Scenario, o core.Options, cfg Config) (*RunResult, *core.Sim, error) {
	if sc.Plan.Sweep != nil {
		// Sweep points fork the hub machine mid-run; sharded workers
		// can't follow a fork. Run sweeps in-process (Scenario.Run).
		return nil, nil, errors.New("dist: sweep scenarios are not supported on the distributed engine")
	}
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
	res, err := sc.NewRun(s).Drive(guard.NewOver(co, s.M, sc.Supervision(o)), 0, nil)
	if guard.IsHang(err) {
		return nil, s, err
	}
	co.Close()
	s.M.Close()
	if err != nil {
		return nil, s, err
	}
	return &RunResult{
		ScenarioResult: res,
		Shards:         co.Shards(),
		Failures:       co.Failures(),
		Recoveries:     co.Recoveries(),
		Checkpoints:    co.Checkpoints(),
	}, s, nil
}
