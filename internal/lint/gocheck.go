package lint

// gocheck: a bare `go` statement escapes the supervision layer
// (DESIGN.md, "Supervised runs & fault injection"): a panic in it
// bypasses the supervisor's recover, a hang in it is invisible to the
// watchdogs, and its scheduling can leak nondeterminism into anything it
// shares state with. Goroutines belong to guard's monitors and dist/serve
// supervision; each such site is either in the allowlisted supervision
// packages or carries an individual //mlint:allow gocheck annotation.

import "go/ast"

// GoCheck reports go statements outside the supervision allowlist.
var GoCheck = &Analyzer{
	Name:      "gocheck",
	Doc:       "no bare goroutines outside the supervised pools",
	Invariant: "every goroutine is owned by a supervised pool or monitor",
	Section:   "Supervised runs & fault injection",
	Run:       runGoCheck,
}

func runGoCheck(m *Module, report Reporter) {
	for _, pkg := range m.Pkgs {
		if pkgIn(pkg.Path, goAllowed) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					report(g.Go, "bare go statement escapes panic containment and the watchdogs")
				}
				return true
			})
		}
	}
}
