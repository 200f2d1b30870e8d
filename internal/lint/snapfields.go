package lint

// snapfields: the static complement to the snapshot round-trip matrix
// (DESIGN.md, "Checkpoint/restore"). The snapshot format is defined
// entirely by the call sequence of the per-package encoders over
// internal/snap, so "added a struct field, snapshot silently drops it"
// is invisible to the compiler and only surfaces when a mid-run restore
// happens to hit the divergence — exactly how the PR 4 chip
// snapshot-validation bug survived until PR 8's shard snapshots.
//
// The pass finds every struct that round-trips through the snap codec
// and demands that each of its fields is referenced on BOTH the encode
// and the decode path — and, when the struct is cloned field by field
// for Machine.Fork, on the clone path too — or is explicitly exempted.
// Those are the only three paths state takes: a decoder builds the live
// part the machine installs, so there is no fourth, copy-into-place list.
//
//   - encode paths: functions with a *snap.Writer parameter, or that
//     call snap.NewWriter;
//   - decode paths: functions with a *snap.Reader parameter, or that
//     call snap.NewReader;
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
// referenced on an encode path AND one on a decode path; write-only
// digest encodes don't conscript a struct into coverage.

import (
	"go/ast"
	"go/types"
	"reflect"
	"slices"
	"strings"
)

// SnapFields reports snapshot-covered struct fields missing from an
// encode, decode or clone path.
var SnapFields = &Analyzer{
	Name:      "snapfields",
	Doc:       "every snapshot-covered struct field is encoded, decoded and cloned, or tagged snap:\"derived\"",
	Invariant: "a snapshot round-trips, and a fork copies, every field of every covered struct",
	Section:   "Checkpoint/restore",
	Run:       runSnapFields,
}

// snapPkgPath is the codec package; its own Writer/Reader internals are
// the transport, not snapshot state.
const snapPkgPath = "repro/internal/snap"

// snapStruct is one struct type defined in the module.
type snapStruct struct {
	name    string // qualified, e.g. repro/internal/noc.Network
	fields  []*types.Var
	derived map[*types.Var]bool
}

func runSnapFields(m *Module, report Reporter) {
	owner := map[*types.Var]*snapStruct{}
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
				owner[f] = s
			}
			structs = append(structs, s)
		}
	}

	encRefs := map[*types.Var]bool{}
	decRefs := map[*types.Var]bool{}
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
				enc, dec := snapRole(pkg, fd)
				clone := fd.Recv != nil && (fd.Name.Name == "Clone" || fd.Name.Name == "clone" || fd.Name.Name == "Fork")
				if !enc && !dec && !clone {
					continue
				}
				collectFieldRefs(pkg, fd, func(v *types.Var) {
					if enc {
						encRefs[v] = true
					}
					if dec {
						decRefs[v] = true
					}
					if clone {
						cloneRefs[v] = true
					}
				})
			}
		}
	}

	onPath := func(s *snapStruct, refs map[*types.Var]bool) bool {
		return slices.ContainsFunc(s.fields, func(f *types.Var) bool { return refs[f] })
	}
	for _, s := range structs {
		// Encode-only is a write-only (digest) encode, not a
		// round-tripped struct.
		if !onPath(s, encRefs) || !onPath(s, decRefs) {
			continue
		}
		cloned := onPath(s, cloneRefs)
		for _, f := range s.fields {
			if s.derived[f] {
				continue
			}
			var missing []string
			if !encRefs[f] {
				missing = append(missing, "encode")
			}
			if !decRefs[f] {
				missing = append(missing, "decode")
			}
			if cloned && !cloneRefs[f] {
				missing = append(missing, "clone")
			}
			if len(missing) > 0 {
				report(f.Pos(), "field %s.%s is not referenced on the snapshot %s path — a snapshot or a fork would drop it silently (carry it or tag it snap:\"derived\")",
					s.name, f.Name(), strings.Join(missing, " or "))
			}
		}
	}
}

// snapRole classifies fd as an encode and/or decode path function.
func snapRole(pkg *Package, fd *ast.FuncDecl) (enc, dec bool) {
	obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false, false
	}
	sig := obj.Type().(*types.Signature)
	check := func(t types.Type) {
		pt, ok := t.(*types.Pointer)
		if !ok {
			return
		}
		named, ok := pt.Elem().(*types.Named)
		if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != snapPkgPath {
			return
		}
		switch named.Obj().Name() {
		case "Writer":
			enc = true
		case "Reader":
			dec = true
		}
	}
	for i := 0; i < sig.Params().Len(); i++ {
		check(sig.Params().At(i).Type())
	}
	// Functions that build their own codec (Save/Restore, the dist
	// frame encoders) are roots too.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pn, ok := pkg.Info.Uses[selIdent(sel.X)].(*types.PkgName)
		if !ok || pn.Imported().Path() != snapPkgPath {
			return true
		}
		switch sel.Sel.Name {
		case "NewWriter":
			enc = true
		case "NewReader":
			dec = true
		}
		return true
	})
	return enc, dec
}

// collectFieldRefs reports every struct-field object referenced in fd's
// body: selector expressions (including chained c.Mem.SDRAM.Words, each
// link of which is its own selection) and keyed or positional struct
// composite literals.
func collectFieldRefs(pkg *Package, fd *ast.FuncDecl, ref func(*types.Var)) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
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
				return true
			}
			st, ok := tv.Type.Underlying().(*types.Struct)
			if !ok {
				return true
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
		return true
	})
}
