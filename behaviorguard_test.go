package xdeal_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
	"testing"
)

// strategyFile is the one file that declares the deviation kinds: their
// table, their JSON names and their parameters.
const strategyFile = "internal/party/strategy.go"

// TestPartyDriversReadNoBehaviorField fails when a deviation leaks out of
// the kinds table: a non-test file of the repository other than the
// strategy file names a kind's JSON name, or selects a parameter field of
// a kind (or of a parameter struct a kind carries, such as a front-
// runner's fee bid). Deviations are strategies on the party's action and
// observation seams, decided in one place; a driver or a generator that
// branched on a kind's parameters would make a second.
func TestPartyDriversReadNoBehaviorField(t *testing.T) {
	repo := loadRepository(t)
	party := repo.pkgs["xdeal/internal/party"]
	if party == nil {
		t.Fatal("internal/party not loaded")
	}
	names := kindNames(t, repo, party)
	params := kindParams(t, party.pkg)
	for _, p := range repo.sorted() {
		for _, f := range p.files {
			file := repo.fset.File(f.Pos()).Name()
			if filepath.ToSlash(file) == strategyFile {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BasicLit:
					if s, err := strconv.Unquote(n.Value); n.Kind == token.STRING && err == nil && names[s] {
						t.Errorf("%s: names the deviation kind %q outside %s", repo.fset.Position(n.Pos()), s, strategyFile)
					}
				case *ast.SelectorExpr:
					if v, ok := p.info.Uses[n.Sel].(*types.Var); ok && params[v] {
						t.Errorf("%s: reads the deviation parameter %s outside %s", repo.fset.Position(n.Pos()), n.Sel.Name, strategyFile)
					}
				}
				return true
			})
		}
	}
}

// kindNames collects the JSON names of the kinds table: the first
// argument of each row of the strategy file's kinds variable.
func kindNames(t *testing.T, repo *exportLoader, party *exportPkg) map[string]bool {
	t.Helper()
	names := make(map[string]bool)
	for _, f := range party.files {
		if filepath.ToSlash(repo.fset.File(f.Pos()).Name()) != strategyFile {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			spec, ok := n.(*ast.ValueSpec)
			if !ok || len(spec.Names) != 1 || spec.Names[0].Name != "kinds" || len(spec.Values) != 1 {
				return true
			}
			table, ok := spec.Values[0].(*ast.CompositeLit)
			if !ok {
				t.Fatalf("%s: kinds is not a table literal", strategyFile)
			}
			for _, row := range table.Elts {
				call, ok := row.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					t.Fatalf("%s: a kinds row is not a kindOf call", repo.fset.Position(row.Pos()))
				}
				lit, ok := call.Args[0].(*ast.BasicLit)
				name, err := strconv.Unquote(lit.Value)
				if !ok || err != nil {
					t.Fatalf("%s: a kinds row does not start with its JSON name", repo.fset.Position(row.Pos()))
				}
				names[name] = true
			}
			return false
		})
	}
	if len(names) == 0 {
		t.Fatalf("%s: no kinds table found", strategyFile)
	}
	return names
}

// kindParams collects the parameter fields of every kind — each type of
// the party package that implements Deviation — and of the party
// package's structs those fields carry.
func kindParams(t *testing.T, party *types.Package) map[*types.Var]bool {
	t.Helper()
	deviation, ok := party.Scope().Lookup("Deviation").Type().Underlying().(*types.Interface)
	if !ok {
		t.Fatal("party.Deviation is not an interface")
	}
	params := make(map[*types.Var]bool)
	var collect func(st *types.Struct)
	collect = func(st *types.Struct) {
		for i := range st.NumFields() {
			field := st.Field(i)
			params[field] = true
			typ := field.Type()
			if ptr, ok := typ.(*types.Pointer); ok {
				typ = ptr.Elem()
			}
			if named, ok := typ.(*types.Named); ok && named.Obj().Pkg() == party {
				if inner, ok := named.Underlying().(*types.Struct); ok {
					collect(inner)
				}
			}
		}
	}
	kinds := 0
	for _, name := range party.Scope().Names() {
		tn, ok := party.Scope().Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) || !types.Implements(tn.Type(), deviation) {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			kinds++
			collect(st)
		}
	}
	if kinds == 0 || len(params) == 0 {
		t.Fatalf("party: found %d kinds with %d parameters", kinds, len(params))
	}
	return params
}
