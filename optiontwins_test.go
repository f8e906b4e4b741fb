package xdeal_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestOptionStructsDeclareEachKnobOnce fails when a field name is
// declared in two option structs of which one is meant to own it. A
// deal's engine.Options reaches the world settings only through its
// World SubstrateConfig, and arena.PopOptions takes the adversary-mix
// upgrades from the arena.Options that NewPopulation is given; a twin
// field in either pair would be a second declaration, with a second
// default, of one knob.
func TestOptionStructsDeclareEachKnobOnce(t *testing.T) {
	for _, pair := range []struct{ dir, a, b string }{
		{"internal/engine", "Options", "SubstrateConfig"},
		{"internal/arena", "PopOptions", "Options"},
	} {
		structs := structFields(t, pair.dir)
		a, okA := structs[pair.a]
		b, okB := structs[pair.b]
		if !okA || !okB {
			t.Fatalf("%s: struct %s or %s not found", pair.dir, pair.a, pair.b)
		}
		var twins []string
		for name := range a {
			if b[name] {
				twins = append(twins, name)
			}
		}
		sort.Strings(twins)
		for _, name := range twins {
			t.Errorf("%s: field %s is declared in both %s and %s", pair.dir, name, pair.a, pair.b)
		}
	}
}

// structFields maps every struct type declared in the non-test files of
// dir to the set of its field names (an embedded field by its type name).
func structFields(t *testing.T, dir string) map[string]map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	out := make(map[string]map[string]bool)
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			fields := make(map[string]bool)
			for _, fl := range st.Fields.List {
				for _, id := range fl.Names {
					fields[id.Name] = true
				}
				if len(fl.Names) == 0 {
					typ := fl.Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					if sel, ok := typ.(*ast.SelectorExpr); ok {
						typ = sel.Sel
					}
					if id, ok := typ.(*ast.Ident); ok {
						fields[id.Name] = true
					}
				}
			}
			out[ts.Name.Name] = fields
			return true
		})
	}
	return out
}
