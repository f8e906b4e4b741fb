package xdeal_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// strategyFile is the one file of internal/party that turns a Behavior
// into strategies.
const strategyFile = "strategy.go"

// TestPartyDriversReadNoBehaviorField fails when a deviation leaks back
// into the compliant drivers: a non-test file of internal/party other
// than the strategy file selects a field of party.Behavior. Deviations
// are strategies on the party's action and observation seams, decided
// in one place; a driver that branches on a Behavior field again would
// make a second. It also fails when a non-test file of internal/engine
// compares a Behavior to a literal — deciding who deviates by a rule of
// its own instead of asking the party (party.Party.Adversary).
func TestPartyDriversReadNoBehaviorField(t *testing.T) {
	fields := structFields(t, "internal/party")["Behavior"]
	if len(fields) == 0 {
		t.Fatal("internal/party: struct Behavior not found")
	}
	fset := token.NewFileSet()
	for name, f := range nonTestFiles(t, fset, "internal/party") {
		if name == strategyFile {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && fields[sel.Sel.Name] {
				t.Errorf("%s: reads Behavior.%s outside %s", fset.Position(sel.Pos()), sel.Sel.Name, strategyFile)
			}
			return true
		})
	}
	for _, f := range nonTestFiles(t, fset, "internal/engine") {
		ast.Inspect(f, func(n ast.Node) bool {
			if cmp, ok := n.(*ast.BinaryExpr); ok && (cmp.Op == token.EQL || cmp.Op == token.NEQ) &&
				(isBehaviorLiteral(cmp.X) || isBehaviorLiteral(cmp.Y)) {
				t.Errorf("%s: compares a party.Behavior to a literal", fset.Position(cmp.Pos()))
			}
			return true
		})
	}
}

// isBehaviorLiteral reports whether e is a party.Behavior composite
// literal, parenthesized or not.
func isBehaviorLiteral(e ast.Expr) bool {
	for {
		paren, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = paren.X
	}
	lit, ok := e.(*ast.CompositeLit)
	if !ok {
		return false
	}
	sel, ok := lit.Type.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "party" && sel.Sel.Name == "Behavior"
}

// nonTestFiles parses the non-test Go files of dir, by file name.
func nonTestFiles(t *testing.T, fset *token.FileSet, dir string) map[string]*ast.File {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]*ast.File)
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = f
	}
	return out
}
