package lint

// snapfields: the static complement to the snapshot round-trip matrix
// (DESIGN.md, "Checkpoint/restore"). The snapshot format is defined
// entirely by the call sequence of the per-component state walks over
// internal/snap, so "added a struct field, snapshot silently drops it"
// is invisible to the compiler and only surfaces when a mid-run restore
// happens to hit the divergence — exactly how the PR 4 chip
// snapshot-validation bug survived until PR 8's shard snapshots.
//
// The pass finds every struct a state walk carries and demands that each
// of its fields is walked — and, when the struct is cloned field by field
// for Machine.Fork, cloned too — or is explicitly exempted. Those are the
// only two paths state takes: one walk both encodes and decodes, so there
// is no second field list to agree with.
//
//   - walk paths: functions with a *snap.Codec parameter. A branch on
//     the codec's direction — `if c.Reading()` (also followed by `&&`
//     and other tests), `if !c.Reading()`, and their else branches —
//     belongs to that direction alone. A field is walked when it is
//     referenced outside such branches, or in branches of both
//     directions (a sparse or unordered section the encoder scans one way
//     and the decoder fills another); what only a decoder mentions —
//     validation, a re-derived cache — walks nothing, and neither does
//     what only an encoder mentions;
//   - clone paths: Clone/clone methods and Fork. A covered struct is
//     held to this path once any of its fields is referenced there;
//     structs that only ever travel by value (slices.Clone of a
//     []PTE) copy every field by construction and are not;
//   - exemptions: a `snap:"derived"` struct tag (the field is
//     deliberately re-derived or fixed by construction at restore —
//     wake caches, link grants, decode memos, engine-selection config),
//     or a reasoned //mlint:allow snapfields on the field.
//
// A struct is "snapshot-covered" when at least one of its fields is
// walked; a struct whose fields only one direction mentions (a queue the
// decoder refills through a method) is not conscripted into coverage.

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"slices"
	"strings"
)

// SnapFields reports snapshot-covered struct fields missing from a
// state walk or clone path.
var SnapFields = &Analyzer{
	Name:      "snapfields",
	Doc:       "every snapshot-covered struct field is walked and cloned, or tagged snap:\"derived\"",
	Invariant: "a snapshot round-trips, and a fork copies, every field of every covered struct",
	Section:   "Checkpoint/restore",
	Run:       runSnapFields,
}

// snapPkgPath is the codec package; its own Codec internals are the
// transport, not snapshot state.
const snapPkgPath = "repro/internal/snap"

// snapStruct is one struct type defined in the module.
type snapStruct struct {
	name    string // qualified, e.g. repro/internal/noc.Network
	fields  []*types.Var
	derived map[*types.Var]bool
}

// zone is the codec direction a piece of walk code runs in.
type zone int

const (
	both zone = iota
	decoding
	encoding
)

func runSnapFields(m *Module, report Reporter) {
	var structs []*snapStruct
	for _, pkg := range m.Pkgs {
		if pkg.Path == snapPkgPath {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			s := &snapStruct{name: pkg.Path + "." + name, derived: map[*types.Var]bool{}}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Name() == "_" {
					continue
				}
				s.fields = append(s.fields, f)
				if v := reflect.StructTag(st.Tag(i)).Get("snap"); v == "derived" || strings.HasPrefix(v, "derived,") {
					s.derived[f] = true
				}
			}
			structs = append(structs, s)
		}
	}

	refs := map[zone]map[*types.Var]bool{both: {}, decoding: {}, encoding: {}}
	cloneRefs := map[*types.Var]bool{}
	for _, pkg := range m.Pkgs {
		if pkg.Path == snapPkgPath {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if isWalk(pkg, fd) {
					inZones(pkg, fd.Body, both, func(n ast.Node, z zone) {
						fieldRefs(pkg, n, func(v *types.Var) { refs[z][v] = true })
					})
				}
				if fd.Recv != nil && (fd.Name.Name == "Clone" || fd.Name.Name == "clone" || fd.Name.Name == "Fork") {
					ast.Inspect(fd.Body, func(n ast.Node) bool {
						fieldRefs(pkg, n, func(v *types.Var) { cloneRefs[v] = true })
						return true
					})
				}
			}
		}
	}

	walked := func(f *types.Var) bool {
		return refs[both][f] || refs[decoding][f] && refs[encoding][f]
	}
	for _, s := range structs {
		if !slices.ContainsFunc(s.fields, walked) {
			continue
		}
		cloned := slices.ContainsFunc(s.fields, func(f *types.Var) bool { return cloneRefs[f] })
		for _, f := range s.fields {
			if s.derived[f] {
				continue
			}
			var missing []string
			if !walked(f) {
				missing = append(missing, "snapshot walk")
			}
			if cloned && !cloneRefs[f] {
				missing = append(missing, "fork clone path")
			}
			if len(missing) > 0 {
				report(f.Pos(), "field %s.%s is not referenced on the %s — a snapshot or a fork would drop it silently (carry it or tag it snap:\"derived\")",
					s.name, f.Name(), strings.Join(missing, " or the "))
			}
		}
	}
}

// isWalk reports whether fd is a walk path: it takes a *snap.Codec.
func isWalk(pkg *Package, fd *ast.FuncDecl) bool {
	for _, p := range fd.Type.Params.List {
		if isCodec(pkg.Info.TypeOf(p.Type)) {
			return true
		}
	}
	return false
}

// isCodec reports whether t is *snap.Codec.
func isCodec(t types.Type) bool { return types.TypeString(t, nil) == "*"+snapPkgPath+".Codec" }

// inZones visits every node under n with the codec direction it runs
// in, starting from z: the condition and body of a direction test take
// its body's direction and the else branch its else's (code already
// inside one direction stays there).
func inZones(pkg *Package, n ast.Node, z zone, visit func(ast.Node, zone)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if is, ok := n.(*ast.IfStmt); ok {
			if body, els := direction(pkg, is.Cond); body != both {
				if z != both {
					body, els = z, z
				}
				if is.Init != nil {
					inZones(pkg, is.Init, z, visit)
				}
				inZones(pkg, is.Cond, body, visit)
				inZones(pkg, is.Body, body, visit)
				if is.Else != nil {
					inZones(pkg, is.Else, els, visit)
				}
				return false
			}
		}
		visit(n, z)
		return true
	})
}

// direction classifies an if condition: c.Reading() runs its body only
// when decoding and its else only when encoding, !c.Reading() the other
// way round; followed by && and further tests (which then also run in
// one direction only), the body keeps the direction and the else runs in
// both. Any other condition is not a direction test (both, both).
func direction(pkg *Package, cond ast.Expr) (body, els zone) {
	switch e := ast.Unparen(cond).(type) {
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Reading" && isCodec(pkg.Info.TypeOf(sel.X)) {
			return decoding, encoding
		}
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			if body, els := direction(pkg, e.X); body != both && els != both {
				return els, body
			}
		}
	case *ast.BinaryExpr:
		if body, _ := direction(pkg, e.X); e.Op == token.LAND && body != both {
			return body, both
		}
	}
	return both, both
}

// fieldRefs reports the struct-field object n references, if any: a
// selector expression (including chained c.Mem.SDRAM.Words, each link of
// which is its own selection) or a keyed or positional struct composite
// literal.
func fieldRefs(pkg *Package, n ast.Node, ref func(*types.Var)) {
	switch e := n.(type) {
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if v, ok := sel.Obj().(*types.Var); ok {
				ref(v)
			}
		}
	case *ast.CompositeLit:
		tv, ok := pkg.Info.Types[e]
		if !ok {
			return
		}
		st, ok := tv.Type.Underlying().(*types.Struct)
		if !ok {
			return
		}
		keyed := false
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				keyed = true
				if id, ok := kv.Key.(*ast.Ident); ok {
					if v, ok := pkg.Info.Uses[id].(*types.Var); ok {
						ref(v)
					}
				}
			}
		}
		if !keyed && len(e.Elts) > 0 {
			for i := 0; i < st.NumFields(); i++ {
				ref(st.Field(i))
			}
		}
	}
}
