package core

// Execution of declarative workload scenarios (the third stage of the
// DSL pipeline, DESIGN.md "The workload DSL"): a Scenario wraps a
// lowered workload.Plan and drives it on a freshly booted Sim — map and
// poke staging state, load programs, run phases under their cycle
// budgets, then verify the expectations the file declares. Scenario
// cycle counts are simulated results, so they are deterministic across
// engines and hosts and are pinned by mbench's record (cmd/mbench picks
// up testdata/workloads/*.wl; testdata/mbench.json).

import (
	"fmt"
	"os"

	"repro/internal/guard"
	"repro/internal/mem"
	"repro/internal/wdsl"
	"repro/internal/workload"
)

// Scenario is a parsed, validated workload scenario ready to run.
type Scenario struct {
	Name string // diagnostics name (file path or caller-chosen)
	Plan *workload.Plan
}

// Title returns the scenario's self-declared title, or its name.
func (sc *Scenario) Title() string {
	if sc.Plan.Title != "" {
		return sc.Plan.Title
	}
	return sc.Name
}

// ScenarioFromDSL parses and lowers DSL source into a runnable Scenario.
// name is used in diagnostics. All errors are positional
// ("name:line:col: message").
func ScenarioFromDSL(name, src string) (*Scenario, error) {
	f, err := wdsl.Parse(name, src)
	if err != nil {
		return nil, err
	}
	plan, err := workload.FromDSL(f)
	if err != nil {
		return nil, err
	}
	return &Scenario{Name: name, Plan: plan}, nil
}

// ScenarioFromFile reads and compiles a .wl scenario file.
func ScenarioFromFile(path string) (*Scenario, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ScenarioFromDSL(path, string(src))
}

// PhaseResult reports one run step of a scenario.
type PhaseResult struct {
	Name   string // phase directive name, or "phase<i>"
	Cycles int64  // cycles the machine advanced during this run step
}

// ScenarioResult is the outcome of Scenario.Run.
type ScenarioResult struct {
	Phases      []PhaseResult
	TotalCycles int64 // machine cycle counter at the end of the run
	Checks      int   // expect/check steps that passed; sweeps: all points
	Stats       Stats
	// Digest is the machine-state fingerprint (machine.Digest) at the
	// end of a successful run. For sweep scenarios it covers the staging
	// machine after the prefix; per-point fingerprints are in Points.
	Digest string
	// Points holds per-point results for sweep scenarios; nil otherwise.
	Points []PointResult
}

// Run boots a machine per the scenario's mesh/caching declarations and
// executes the plan. The caller's Options may select the engine
// (NaiveEngine) and tracing-related settings;
// the mesh dimensions and caching mode always come from the scenario
// file. Expect/check failures are returned as errors naming the step's
// source position.
func (sc *Scenario) Run(o Options) (*ScenarioResult, error) {
	res, _, err := sc.RunSim(o)
	return res, err
}

// RunSim is Run, additionally returning the simulator for post-run
// inspection (console output, trace events, registers). The machine is
// already closed; its final state remains readable.
//
// Execution is supervised (internal/guard): a panic anywhere in the plan
// or the engines surfaces as a crash *guard.Failure, and the watchdogs —
// the caller's Options.Supervise, else the scenario file's
// deadline/budget directives — cut off runaway runs as a stall-timeout or
// budget *guard.Failure, with a diagnostic and (when Supervise.DumpPath is set) a restorable
// crash-dump snapshot attached. Supervision never changes simulated
// results. In the one unrecoverable case — the error satisfies
// guard.IsHang — the machine is abandoned un-Closed, because a wedged
// run goroutine still owns it.
func (sc *Scenario) RunSim(o Options) (*ScenarioResult, *Sim, error) {
	if sc.Plan.Sweep != nil {
		return sc.runSweep(o)
	}
	s, err := sc.NewSim(o)
	if err != nil {
		return nil, nil, err
	}
	res, err := sc.supervise(s, o)
	if !guard.IsHang(err) {
		s.M.Close()
	}
	return res, s, err
}

// NewSim boots a simulator for this scenario: the mesh dimensions and
// caching mode always come from the scenario file; o selects the engine
// and tracing environment.
func (sc *Scenario) NewSim(o Options) (*Sim, error) {
	o.Nodes = 0
	o.Dims.X, o.Dims.Y, o.Dims.Z = sc.Plan.Dims[0], sc.Plan.Dims[1], sc.Plan.Dims[2]
	o.Caching = sc.Plan.Caching
	return NewSim(o)
}

// Supervision is the guard.Options a run of this scenario is supervised
// under: the caller's o.Supervise, whose zero Timeout/CycleBudget take the
// scenario file's deadline/budget.
func (sc *Scenario) Supervision(o Options) guard.Options {
	g := o.Supervise
	if g.Timeout == 0 {
		g.Timeout = sc.Plan.Deadline
	}
	if g.CycleBudget == 0 {
		g.CycleBudget = sc.Plan.CycleBudget
	}
	return g
}

// supervise drives the plan to completion on a booted simulator, in
// unsliced quanta, under one supervisor bounded by Supervision(o).
func (sc *Scenario) supervise(s *Sim, o Options) (*ScenarioResult, error) {
	return sc.NewRun(s).Drive(guard.New(s.M, sc.Supervision(o)), 0, nil)
}

// step executes one non-run plan step (run phases are ScenarioRun's
// business: they need the supervisor's budget clamp and slicing).
func (sc *Scenario) step(s *Sim, env workload.Env, st *workload.PlanStep, checks *int) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%s: %s", st.Pos, fmt.Sprintf(format, args...))
	}
	switch st.Kind {
	case workload.PlanMapLocal:
		s.MapLocal(st.Node, st.Page, mem.BSReadWrite, true)
		return nil

	case workload.PlanPoke:
		addr, err := st.Addr(env)
		if err != nil {
			return err
		}
		v, err := st.Value(env)
		if err != nil {
			return err
		}
		if err := s.Poke(st.Node, addr, v); err != nil {
			return fail("poke node %d addr %d: %v", st.Node, addr, err)
		}
		return nil

	case workload.PlanLoad:
		if st.Src != nil {
			src, err := st.Src(env)
			if err != nil {
				return err
			}
			load := s.LoadASM
			if st.User {
				load = s.LoadUserASM
			}
			if err := load(st.Node, st.VThread, st.Cluster, src); err != nil {
				return fail("%v", err)
			}
			return nil
		}
		progs, err := st.Progs(env)
		if err != nil {
			return err
		}
		for k, p := range progs {
			s.LoadProgram(st.Node, st.VThread, st.Cluster+k, p, !st.User)
		}
		return nil

	case workload.PlanGrant:
		addr, err := st.Addr(env)
		if err != nil {
			return err
		}
		if err := s.GrantPointer(st.Node, st.VThread, st.Cluster, st.Reg, st.Perms, st.SegLen, addr); err != nil {
			return fail("grant: %v", err)
		}
		return nil

	case workload.PlanExpectReg:
		want, err := st.Value(env)
		if err != nil {
			return err
		}
		got := s.Reg(st.Node, st.VThread, st.Cluster, st.Reg)
		if got != want {
			return fail("expect reg: node %d vthread %d cluster %d i%d = %d, want %d",
				st.Node, st.VThread, st.Cluster, st.Reg, got, want)
		}
		*checks++
		return nil

	case workload.PlanExpectMem:
		addr, err := st.Addr(env)
		if err != nil {
			return err
		}
		want, err := st.Value(env)
		if err != nil {
			return err
		}
		got, err := s.Peek(st.Node, addr)
		if err != nil {
			return fail("expect mem: node %d addr %d: %v", st.Node, addr, err)
		}
		if got != want {
			if st.Float {
				return fail("expect fmem: node %d addr %d = %#x, want %#x", st.Node, addr, got, want)
			}
			return fail("expect mem: node %d addr %d = %d, want %d", st.Node, addr, got, want)
		}
		*checks++
		return nil

	case workload.PlanCheck:
		if err := st.Check(env, s.Peek); err != nil {
			return fail("check: %v", err)
		}
		*checks++
		return nil
	}
	return fail("internal: unhandled plan step kind %d", st.Kind)
}
