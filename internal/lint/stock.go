package lint

// Stock correctness passes. go vet's default set (copylocks included)
// already runs in the vet leg; these are the passes it leaves out
// (nilness, shadow). The container
// carries no golang.org/x/tools, so these are conservative stdlib
// reimplementations of the same invariants, tuned to report only
// high-confidence findings: the lint leg fails on any unsuppressed
// diagnostic, so a noisy heuristic would just breed suppressions.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Shadow reports an inner := or var declaration that shadows a
// function-local variable which is still used after the inner scope
// ends — the classic "assigned to the wrong err" hazard. The idiomatic
// delimited shadows Go relies on are exempt: if/for/switch init
// clauses (`if err := f(); err != nil`), range clause variables, and
// function-literal parameters, all of which scope the shadow to a
// single visible statement.
var Shadow = &Analyzer{
	Name:      "shadow",
	Doc:       "no shadowed variables that are used again after the shadowing scope",
	Invariant: "a declaration does not silently capture writes meant for an outer variable",
	Section:   "Static analysis",
	Run:       runShadow,
}

// shadowExempt collects the positions of identifiers declared by the
// idiomatic delimited-shadow forms.
func shadowExempt(files []*ast.File) map[token.Pos]bool {
	exempt := map[token.Pos]bool{}
	markAssign := func(s ast.Stmt) {
		as, ok := s.(*ast.AssignStmt)
		if !ok {
			return
		}
		for _, l := range as.Lhs {
			if id, ok := l.(*ast.Ident); ok {
				exempt[id.Pos()] = true
			}
		}
	}
	markExpr := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok {
			exempt[id.Pos()] = true
		}
	}
	markParams := func(ft *ast.FuncType) {
		for _, fl := range []*ast.FieldList{ft.Params, ft.Results} {
			if fl == nil {
				continue
			}
			for _, f := range fl.List {
				for _, n := range f.Names {
					exempt[n.Pos()] = true
				}
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.IfStmt:
				if s.Init != nil {
					markAssign(s.Init)
				}
			case *ast.ForStmt:
				if s.Init != nil {
					markAssign(s.Init)
				}
			case *ast.SwitchStmt:
				if s.Init != nil {
					markAssign(s.Init)
				}
			case *ast.TypeSwitchStmt:
				if s.Init != nil {
					markAssign(s.Init)
				}
				markAssign(s.Assign)
			case *ast.RangeStmt:
				if s.Key != nil {
					markExpr(s.Key)
				}
				if s.Value != nil {
					markExpr(s.Value)
				}
			case *ast.FuncLit:
				markParams(s.Type)
			}
			return true
		})
	}
	return exempt
}

func runShadow(m *Module, report Reporter) {
	for _, pkg := range m.Pkgs {
		exempt := shadowExempt(pkg.Files)
		fileScopes := map[*types.Scope]bool{}
		for _, f := range pkg.Files {
			if s, ok := pkg.Info.Scopes[f]; ok {
				fileScopes[s] = true
			}
		}
		nonLocal := func(s *types.Scope) bool {
			return s == nil || s == types.Universe || s == pkg.Types.Scope() || fileScopes[s]
		}
		for id, obj := range pkg.Info.Defs {
			v, ok := obj.(*types.Var)
			if !ok || id.Name == "_" || v.IsField() || exempt[id.Pos()] {
				continue
			}
			inner := v.Parent()
			if nonLocal(inner) || inner.Parent() == nil {
				continue
			}
			_, outerObj := inner.Parent().LookupParent(id.Name, id.Pos())
			outer, ok := outerObj.(*types.Var)
			if !ok || outer == v || outer.IsField() || nonLocal(outer.Parent()) {
				continue
			}
			// Heuristic: only a shadow whose outer variable is used
			// again after the inner scope closes can misdirect a write.
			usedAfter := false
			for useID, useObj := range pkg.Info.Uses {
				if useObj == outer && useID.Pos() > inner.End() {
					usedAfter = true
					break
				}
			}
			if usedAfter {
				report(id.Pos(), "declaration of %q shadows declaration at %s; the outer variable is used after this scope",
					id.Name, m.Fset.Position(outer.Pos()))
			}
		}
	}
}

// Nilness reports dereferences of a variable on a branch where the
// guarding condition proves it nil: `if x == nil { ... x.f ... }` and
// the else-arm of `if x != nil`. Branches that reassign the variable
// anywhere are skipped, so the check stays conservative.
var Nilness = &Analyzer{
	Name:      "nilness",
	Doc:       "no dereference of a provably nil variable",
	Invariant: "a nil-guarded branch does not dereference the guarded variable",
	Section:   "Static analysis",
	Run:       runNilness,
}

func runNilness(m *Module, report Reporter) {
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ifs, ok := n.(*ast.IfStmt)
				if !ok {
					return true
				}
				bin, ok := ifs.Cond.(*ast.BinaryExpr)
				if !ok {
					return true
				}
				id := nilComparedVar(pkg, bin)
				if id == nil {
					return true
				}
				obj := objOf(pkg, id)
				if obj == nil {
					return true
				}
				var body *ast.BlockStmt
				switch bin.Op {
				case token.EQL:
					body = ifs.Body
				case token.NEQ:
					body, _ = ifs.Else.(*ast.BlockStmt)
				}
				if body == nil || reassigns(pkg, body, obj) {
					return true
				}
				reportNilUses(m, pkg, body, obj, report)
				return true
			})
		}
	}
}

// nilComparedVar returns the plain variable ident compared against nil.
func nilComparedVar(pkg *Package, bin *ast.BinaryExpr) *ast.Ident {
	if bin.Op != token.EQL && bin.Op != token.NEQ {
		return nil
	}
	isNil := func(e ast.Expr) bool {
		tv, ok := pkg.Info.Types[e]
		return ok && tv.IsNil()
	}
	if id, ok := bin.X.(*ast.Ident); ok && isNil(bin.Y) {
		return id
	}
	if id, ok := bin.Y.(*ast.Ident); ok && isNil(bin.X) {
		return id
	}
	return nil
}

// reassigns reports whether body assigns to obj or takes its address.
func reassigns(pkg *Package, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, l := range s.Lhs {
				if id, ok := l.(*ast.Ident); ok && objOf(pkg, id) == obj {
					found = true
				}
			}
		case *ast.UnaryExpr:
			if s.Op == token.AND {
				if id, ok := s.X.(*ast.Ident); ok && objOf(pkg, id) == obj {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// reportNilUses flags pointer/interface selections, explicit
// dereferences, and calls of obj inside body.
func reportNilUses(m *Module, pkg *Package, body *ast.BlockStmt, obj types.Object, report Reporter) {
	derefable := func() bool {
		switch obj.Type().Underlying().(type) {
		case *types.Pointer, *types.Interface, *types.Signature:
			return true
		}
		return false
	}()
	if !derefable {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := e.X.(*ast.Ident); ok && objOf(pkg, id) == obj {
				report(e.Pos(), "%q is nil on this path (guarded at %s) and is dereferenced here",
					id.Name, m.Fset.Position(body.Pos()))
			}
		case *ast.StarExpr:
			if id, ok := e.X.(*ast.Ident); ok && objOf(pkg, id) == obj {
				report(e.Pos(), "%q is nil on this path and is dereferenced here", id.Name)
			}
		case *ast.CallExpr:
			if id, ok := e.Fun.(*ast.Ident); ok && objOf(pkg, id) == obj {
				report(e.Pos(), "%q is nil on this path and is called here", id.Name)
			}
		}
		return true
	})
}
