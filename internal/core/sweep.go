package core

// Sweep execution (DESIGN.md "Workload DSL v2"): a sweep scenario's
// shared staging prefix runs once on a freshly booted machine, then
// every sweep point runs on a Fork of that staged machine — a bit-exact
// clone — so N points cost one staging instead of N. Because
// the fork is exact, a point's simulated results and final state digest
// are bit-identical to booting a fresh machine and replaying prefix +
// point from scratch (Plan.PointPlan); TestSweepMatchesStandalone pins
// that equivalence across every engine.
//
// When the mesh dimensions themselves are swept there is nothing to
// share — the staged machines differ in shape — so each point boots its
// own machine and the prefix is empty by construction (the lowering
// forces the split to 0).

import (
	"fmt"

	"repro/internal/guard"
	"repro/internal/workload"
)

// PointResult is one sweep point's outcome. Phases carry the point
// prefix in their names ("MSGS=4/work"); Digest fingerprints the
// point's final machine state (machine.Digest).
type PointResult struct {
	Name        string // "NAME=value"
	Phases      []PhaseResult
	TotalCycles int64 // point machine's cycle counter at the end
	Checks      int
	Digest      string
}

// runSweep executes a sweep scenario: prefix once, then one forked (or,
// for swept meshes, freshly booted) machine per point. The returned Sim
// is the staging machine; its recorder accumulates every point's trace
// events after its own, so the full run remains observable through one
// stream. Point supervision budgets count cycles from the fork — the
// budget directive bounds each point's own work, not the shared
// staging.
func (sc *Scenario) runSweep(o Options) (*ScenarioResult, *Sim, error) {
	plan := sc.Plan
	s, err := sc.NewSim(o)
	if err != nil {
		return nil, nil, err
	}

	// The staging prefix, under the scenario-wide supervision bounds.
	prefix := &Scenario{Name: sc.Name, Plan: &workload.Plan{
		Title: plan.Title, Dims: plan.Dims, Caching: plan.Caching,
		Deadline: plan.Deadline, CycleBudget: plan.CycleBudget,
		Steps: plan.Steps,
	}}
	res, err := prefix.supervise(s, o)
	if err != nil {
		if !guard.IsHang(err) {
			s.M.Close()
		}
		return nil, s, err
	}

	for i := range plan.Sweep.Points {
		pt := &plan.Sweep.Points[i]
		point := &Scenario{Name: sc.Name, Plan: &workload.Plan{
			Title: pt.Name, Dims: pt.Dims, Caching: plan.Caching,
			Deadline: plan.Deadline, CycleBudget: pt.CycleBudget,
			Steps: pt.Steps,
		}}
		var ps *Sim
		if plan.Sweep.MeshSwept {
			ps, err = point.NewSim(o)
		} else {
			ps, err = s.Fork()
		}
		if err == nil {
			var pr *PointResult
			pr, err = point.runPoint(ps, o, pt.Name, s)
			if pr != nil {
				res.Phases = append(res.Phases, pr.Phases...)
				res.Checks += pr.Checks
				res.Points = append(res.Points, *pr)
			}
		}
		if err != nil {
			s.M.Close()
			return nil, s, fmt.Errorf("sweep point %s: %w", pt.Name, err)
		}
	}

	// res.Digest is the prefix's: the points ran on forks or fresh boots.
	s.M.Close()
	return res, s, nil
}

// runPoint executes one point's suffix plan on its machine (a fork of
// the staging machine, or a fresh boot for swept meshes) under the
// point's own supervision bounds, then folds the point's trace events
// into parent's recorder so the whole sweep reads as one stream.
func (sc *Scenario) runPoint(ps *Sim, o Options, name string, parent *Sim) (*PointResult, error) {
	res, err := sc.supervise(ps, o)
	if guard.IsHang(err) {
		// A wedged run goroutine still owns the point machine; abandon
		// it un-Closed (its events stay unobserved).
		return nil, err
	}
	parent.Recorder.Drain(ps.Recorder)
	ps.M.Close()
	if err != nil {
		return nil, err
	}
	pr := &PointResult{Name: name, TotalCycles: res.TotalCycles, Checks: res.Checks, Digest: res.Digest}
	for _, ph := range res.Phases {
		pr.Phases = append(pr.Phases, PhaseResult{Name: name + "/" + ph.Name, Cycles: ph.Cycles})
	}
	return pr, nil
}
