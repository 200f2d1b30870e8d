// Package lint is the repo-specific static-analysis suite behind
// cmd/mlint (DESIGN.md, "Static analysis"). The determinism invariants
// that keep every engine mode bit-identical — no map-iteration order
// reaching simulated state, no wall clock or global rand on simulation
// paths, no goroutines outside the supervised pools, every
// snapshot-covered struct field encoded or explicitly derived — live in
// DESIGN.md as prose; the analyzers here turn them into CI-enforced
// checks over the whole module.
//
// The framework mirrors golang.org/x/tools/go/analysis in miniature
// (that dependency is deliberately absent: the module is stdlib-only):
// an Analyzer walks the type-checked Module and reports Diagnostics;
// the driver filters them through //mlint:allow suppressions, each of
// which must carry a reason string so `mlint -suppressions` can audit
// every hole punched in an invariant.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Analyzer is one invariant checker. Run inspects the whole module and
// reports through the supplied function; the driver appends the
// violated invariant and its DESIGN.md section to every diagnostic.
type Analyzer struct {
	Name      string // short lowercase name, used in //mlint:allow
	Doc       string // one-line description for -list
	Invariant string // the invariant a diagnostic violates
	Section   string // DESIGN.md section documenting the invariant
	Run       func(m *Module, report Reporter)
}

// Reporter records one finding at pos.
type Reporter func(pos token.Pos, format string, args ...any)

// Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Result is a full run of the suite over a module.
type Result struct {
	Diags        []Diagnostic   // unsuppressed findings (CI fails on any)
	Suppressed   []Diagnostic   // findings covered by an //mlint:allow
	Suppressions []*Suppression // every directive found, used or not
	Derived      []DerivedTag   // every snap:"derived" exemption found
}

// Analyzers returns the full suite: the four repo-specific determinism
// analyzers plus the stock correctness passes that go vet does not run.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DetRange, WallClock, GoCheck, SnapFields,
		Shadow, Nilness,
	}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run executes the analyzers over m and applies suppression directives.
func RunAnalyzers(m *Module, as []*Analyzer) *Result {
	res := &Result{}
	supps, derived, bad := collectDirectives(m)
	res.Suppressions = supps
	res.Derived = derived
	// A malformed directive (no reason, unknown analyzer) is itself a
	// finding: suppressions without reasons defeat the audit trail.
	res.Diags = append(res.Diags, bad...)

	var all []Diagnostic
	for _, a := range as {
		a := a
		a.Run(m, func(pos token.Pos, format string, args ...any) {
			p := m.Fset.Position(pos)
			msg := fmt.Sprintf(format, args...)
			msg = fmt.Sprintf("%s [invariant: %s — DESIGN.md %q]", msg, a.Invariant, a.Section)
			all = append(all, Diagnostic{Pos: p, Analyzer: a.Name, Message: msg})
		})
	}

	for _, d := range all {
		if s := matchSuppression(supps, d); s != nil {
			s.Used = true
			res.Suppressed = append(res.Suppressed, d)
			continue
		}
		res.Diags = append(res.Diags, d)
	}
	sortDiags(res.Diags)
	sortDiags(res.Suppressed)
	return res
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
