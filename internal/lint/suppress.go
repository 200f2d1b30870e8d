package lint

// Suppression directives. A finding is only ever silenced by an
// explicit, reasoned annotation at the finding site:
//
//	x := foo() //mlint:allow detrange keys sorted below before use
//
// or, on its own line, covering the line below:
//
//	//mlint:allow gocheck worker pool goroutines block on their start channel
//	go p.worker(w)
//
// The reason is mandatory — an allow without one is itself a
// diagnostic — and `mlint -suppressions` lists every directive (and
// every snap:"derived" tag) so the full exemption set stays auditable.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strconv"
	"strings"
)

// directivePrefix introduces a suppression comment.
const directivePrefix = "//mlint:allow"

// Suppression is one parsed //mlint:allow directive.
type Suppression struct {
	Pos      token.Position
	Analyzer string
	Reason   string
	Line     int  // line the directive silences
	Used     bool // matched at least one finding this run
}

// DerivedTag is one snap:"derived" struct-tag exemption, listed by
// `mlint -suppressions` alongside the comment directives.
type DerivedTag struct {
	Pos    token.Position
	Struct string // qualified struct name
	Field  string
}

// collectDirectives scans every loaded file for suppression comments
// and derived tags. Malformed directives are returned as diagnostics.
func collectDirectives(m *Module) ([]*Suppression, []DerivedTag, []Diagnostic) {
	var supps []*Suppression
	var bad []Diagnostic
	seen := map[string]bool{}
	for _, pkg := range m.Pkgs {
		for i, f := range pkg.Files {
			fn := pkg.Filenames[i]
			if seen[fn] {
				continue
			}
			seen[fn] = true
			src := m.srcs[fn]
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, directivePrefix) {
						continue
					}
					pos := m.Fset.Position(c.Pos())
					s, err := parseDirective(c.Text, pos)
					if err != nil {
						bad = append(bad, Diagnostic{Pos: pos, Analyzer: "mlint", Message: err.Error()})
						continue
					}
					s.Line = pos.Line
					if standalone(src, pos) {
						s.Line = pos.Line + 1
					}
					supps = append(supps, s)
				}
			}
		}
	}
	return supps, collectDerived(m), bad
}

func parseDirective(text string, pos token.Position) (*Suppression, error) {
	rest := strings.TrimPrefix(text, directivePrefix)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil, fmt.Errorf("malformed %s directive", directivePrefix)
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil, fmt.Errorf("%s needs an analyzer name and a reason", directivePrefix)
	}
	name := fields[0]
	if ByName(name) == nil {
		return nil, fmt.Errorf("%s names unknown analyzer %q", directivePrefix, name)
	}
	reason := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), name))
	if reason == "" {
		return nil, fmt.Errorf("suppression of %q requires a reason string", name)
	}
	return &Suppression{Pos: pos, Analyzer: name, Reason: reason}, nil
}

// standalone reports whether the comment at pos is the first token on
// its source line (so the directive covers the following line).
func standalone(src []byte, pos token.Position) bool {
	off := pos.Offset
	for off > 0 && src[off-1] != '\n' {
		if c := src[off-1]; c != ' ' && c != '\t' {
			return false
		}
		off--
	}
	return true
}

func matchSuppression(supps []*Suppression, d Diagnostic) *Suppression {
	for _, s := range supps {
		if s.Analyzer == d.Analyzer && s.Pos.Filename == d.Pos.Filename && s.Line == d.Pos.Line {
			return s
		}
	}
	return nil
}

// collectDerived walks struct declarations for snap:"derived" tags.
func collectDerived(m *Module) []DerivedTag {
	var out []DerivedTag
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, fld := range st.Fields.List {
					if !fieldDerived(fld) {
						continue
					}
					for _, name := range fld.Names {
						out = append(out, DerivedTag{
							Pos:    m.Fset.Position(name.Pos()),
							Struct: pkg.Path + "." + ts.Name.Name,
							Field:  name.Name,
						})
					}
					if len(fld.Names) == 0 { // embedded field
						out = append(out, DerivedTag{
							Pos:    m.Fset.Position(fld.Pos()),
							Struct: pkg.Path + "." + ts.Name.Name,
							Field:  types.ExprString(fld.Type),
						})
					}
				}
				return true
			})
		}
	}
	return out
}

// fieldDerived reports whether a struct field carries snap:"derived".
func fieldDerived(fld *ast.Field) bool {
	if fld.Tag == nil {
		return false
	}
	tag, err := strconv.Unquote(fld.Tag.Value)
	if err != nil {
		return false
	}
	v := reflect.StructTag(tag).Get("snap")
	return v == "derived" || strings.HasPrefix(v, "derived,")
}
