package workload

// Sweep lowering: the DSL's `sweep NAME ...` directive turns one
// scenario file into one experiment per parameter value. The lowering
// splits the scenario's steps at the first sweep-dependent step:
// everything before it is the shared staging prefix (lowered once into
// Plan.Steps and executed once — the executor forks the machine at that
// point for every sweep value), and everything from it on is lowered
// once per point under that point's bindings into SweepPoint.Steps.
//
// Dependence is syntactic and transitive: a step depends on the sweep
// when any of its expressions — or any expression of a program it loads
// — references the sweep parameter, a const whose declaration
// (transitively) references it, or `nodes` when the mesh dimensions
// themselves are swept. Swept meshes have no shareable prefix at all
// (the staging machine's shape differs per point), so MeshSwept plans
// carry an empty Plan.Steps and each point boots its own machine.
//
// The fork-per-point construction is what makes sweeps cheap *and*
// trustworthy: because machine.Fork is a bit-exact clone,
// running a point from the fork is bit-identical to re-running the
// prefix from boot and then the point — TestSweepMatchesStandalone in
// internal/core pins exactly that, via PointPlan.

import (
	"fmt"

	"repro/internal/wdsl"
)

// SweepPlan describes a lowered sweep: the parameter name and one
// SweepPoint per value, in declaration order.
type SweepPlan struct {
	// Name is the sweep parameter's name as declared.
	Name string
	// MeshSwept reports that the mesh dimensions depend on the
	// parameter; the plan then has no shared staging prefix and every
	// point boots a fresh machine of its own Dims.
	MeshSwept bool
	Points    []SweepPoint
}

// SweepPoint is one sweep value's experiment: the suffix steps to run
// after forking the shared prefix (or after booting Dims for swept
// meshes).
type SweepPoint struct {
	Name        string // "NAME=value", used in phase and result labels
	Value       int64
	Dims        [3]int
	CycleBudget int64
	Steps       []PlanStep
}

// maxSweepPoints bounds a sweep's experiment count, like maxMeshNodes
// bounds a mesh: generous for parameter studies, tight enough that a
// typo'd range fails validation instead of launching a thousand runs.
const maxSweepPoints = 32

// PointPlan returns sweep point i as a standalone non-sweep Plan: the
// shared prefix followed by the point's steps, under the point's mesh
// and budget. Running it from boot must be bit-identical to the forked
// execution of the same point inside the sweep.
func (p *Plan) PointPlan(i int) *Plan {
	pt := p.Sweep.Points[i]
	steps := make([]PlanStep, 0, len(p.Steps)+len(pt.Steps))
	steps = append(steps, p.Steps...)
	steps = append(steps, pt.Steps...)
	return &Plan{
		Title:       fmt.Sprintf("%s [%s]", p.Title, pt.Name),
		Dims:        pt.Dims,
		Caching:     p.Caching,
		Deadline:    p.Deadline,
		CycleBudget: pt.CycleBudget,
		Steps:       steps,
	}
}

// fromDSLSweep lowers a scenario file carrying a sweep directive.
func fromDSLSweep(f *wdsl.File) (*Plan, error) {
	sw := f.Sweep
	for _, builtin := range []string{"nodes", "node", "dip", "dipsync"} {
		if sw.Name == builtin {
			return nil, errAt(f, sw.NamePos, "sweep parameter %q shadows a builtin", sw.Name)
		}
	}
	values, err := sweepValues(f)
	if err != nil {
		return nil, err
	}

	// The dependence set: the parameter itself, `nodes` when the mesh
	// is swept, then every const transitively touching either. Consts
	// are walked in declaration order, so a chain A -> B -> sweep
	// resolves regardless of length.
	depNames := []string{sw.Name}
	dep := func(name string) bool { return containsStr(depNames, name) }
	meshSwept := false
	for _, e := range f.MeshExprs {
		if e != nil && wdsl.UsesIdent(e, dep) {
			meshSwept = true
		}
	}
	if meshSwept {
		depNames = append(depNames, "nodes")
	}
	for _, c := range f.Consts {
		if wdsl.UsesIdent(c.Expr, dep) {
			depNames = append(depNames, c.Name)
		}
	}

	// Split the steps at the first sweep-dependent one.
	progDep := func(name string) bool {
		decl := f.Lookup(name)
		return decl != nil && decl.UsesIdent(dep)
	}
	split := len(f.Steps)
	for i, s := range f.Steps {
		if s.UsesIdent(dep) || (s.Kind == wdsl.StepLoad && progDep(s.Prog)) {
			split = i
			break
		}
	}
	if meshSwept {
		split = 0 // machine shape differs per point: nothing to share
	} else if split == len(f.Steps) {
		return nil, errAt(f, sw.NamePos, "sweep parameter %q is never used", sw.Name)
	}

	plan := &SweepPlan{Name: sw.Name, MeshSwept: meshSwept}
	p := &Plan{Title: f.Title, Caching: f.Caching, Deadline: f.Deadline, Sweep: plan}
	for i, v := range values {
		var extra map[string]int64
		if meshSwept {
			extra = map[string]int64{sw.Name: v}
		}
		dims, nodes, err := evalMesh(f, extra)
		if err != nil {
			return nil, err
		}
		lo, err := newLowerer(f, nodes, map[string]int64{sw.Name: v})
		if err != nil {
			return nil, err
		}
		pt := SweepPoint{Name: fmt.Sprintf("%s=%d", sw.Name, v), Value: v, Dims: dims}
		if pt.CycleBudget, err = lo.budget(); err != nil {
			return nil, err
		}
		for _, s := range f.Steps[split:] {
			steps, err := lo.lowerStep(s)
			if err != nil {
				return nil, err
			}
			pt.Steps = append(pt.Steps, steps...)
		}
		if i == 0 {
			// The shared prefix is lowered under point 0's bindings.
			// That's sound because no prefix step references a
			// dependent name (that's what the split guarantees), so
			// every point sees identical prefix values.
			p.Dims, p.CycleBudget = dims, pt.CycleBudget
			for _, s := range f.Steps[:split] {
				steps, err := lo.lowerStep(s)
				if err != nil {
					return nil, err
				}
				p.Steps = append(p.Steps, steps...)
			}
		}
		plan.Points = append(plan.Points, pt)
	}
	return p, nil
}

// sweepValues expands the sweep directive into its value list. Sweep
// expressions must be self-contained (literals and arithmetic — no
// consts, which may depend on the mesh size the sweep itself controls).
func sweepValues(f *wdsl.File) ([]int64, error) {
	sw := f.Sweep
	env := &wdsl.EvalEnv{File: f.Name}
	if sw.Values != nil {
		values := make([]int64, len(sw.Values))
		for i, e := range sw.Values {
			v, err := wdsl.Eval(e, env)
			if err != nil {
				return nil, err
			}
			values[i] = v
		}
		if len(values) > maxSweepPoints {
			return nil, errAt(f, sw.Pos, "sweep has %d points, more than the %d-point limit", len(values), maxSweepPoints)
		}
		return values, nil
	}
	lo, err := wdsl.Eval(sw.Lo, env)
	if err != nil {
		return nil, err
	}
	hi, err := wdsl.Eval(sw.Hi, env)
	if err != nil {
		return nil, err
	}
	if hi < lo {
		return nil, errAt(f, sw.Pos, "empty sweep range [%d, %d]", lo, hi)
	}
	if n := hi - lo + 1; n > maxSweepPoints {
		return nil, errAt(f, sw.Pos, "sweep range spans %d points, more than the %d-point limit", n, maxSweepPoints)
	}
	values := make([]int64, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		values = append(values, v)
	}
	return values, nil
}
