// Package lint implements xdeal's custom static-analysis suite: a
// minimal, dependency-free re-implementation of the golang.org/x/tools
// go/analysis driver model, plus the four analyzers that statically
// enforce the simulator's determinism and accounting invariants.
//
// Everything a headline number in this repo rests on — byte-identical
// reports across worker counts, bit-for-bit replays of flagged seeds,
// exact per-phase gas and fee attribution — is a *global* property that
// a single unsorted map iteration or stray wall-clock read silently
// destroys. The runtime tests only catch such a bug when the scheduler
// happens to expose it; these analyzers reject the bug class at build
// time instead:
//
//   - detrange: map iteration order must not reach report output
//     (see detrange.go for the sanctioned shapes)
//   - noclock: the scheduler's virtual clock and internal/sim.RNG are
//     the only sources of time and randomness inside the simulator
//   - receiptcheck: receipts and errors from chain and contract calls
//     are Property-violation evidence and must not be discarded
//   - labelcheck: gas/fee attribution labels must be composed from the
//     declared party.Label* constant set, not retyped string literals
//
// The suite is exposed through cmd/xdealvet, which runs both as a
// standalone checker (`go run ./cmd/xdealvet ./...`) and as a vettool
// (`go vet -vettool=/path/to/xdealvet ./...`). The framework uses only
// the standard library: the environment this repo builds in has no
// module proxy, so depending on x/tools itself is not an option.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check. The shape deliberately
// mirrors golang.org/x/tools/go/analysis.Analyzer so the checks could
// be ported to the real framework wholesale if the dependency ever
// becomes available.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and enables
	// `-name` / `-name=false` selection flags on cmd/xdealvet.
	Name string
	// Doc is the one-paragraph help text, first line short.
	Doc string
	// Run applies the check to one package, reporting findings
	// through pass.Report.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Fset *token.FileSet
	// Files holds the package's parsed syntax trees, with comments.
	// Test files (*_test.go) are not included: the analyzers guard
	// the production report path, and the build systems driving them
	// (go vet) present test units separately anyway.
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Report emits one diagnostic.
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// Reportf emits a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, positioned within the package's fileset.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled in by the driver
}

// Suite returns the full xdealvet analyzer suite in reporting order.
func Suite() []*Analyzer {
	return []*Analyzer{DetRange, NoClock, ReceiptCheck, LabelCheck}
}

// RunAnalyzers applies analyzers to one loaded package and returns the
// diagnostics sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
		name := a.Name
		pass.report = func(d Diagnostic) {
			d.Analyzer = name
			diags = append(diags, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// ---- shared helpers used by more than one analyzer ----

// pathHasInternal reports whether the package path crosses an internal/
// boundary (i.e. the package is part of the simulator, not a cmd or
// example).
func pathHasInternal(path string) bool {
	return strings.HasPrefix(path, "internal/") || strings.Contains(path, "/internal/")
}

// lastSegment returns the final element of an import path.
func lastSegment(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// isTestFile reports whether the file's position belongs to a _test.go
// file. go vet hands test units to the tool too; the invariants these
// analyzers enforce guard the production report path, so test scaffolds
// stay out of scope.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go")
}

// calleeObject resolves the called function or method of call, or nil.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		return info.Uses[fun.Sel] // package-qualified call
	}
	return nil
}

// funcKey names a function or method as "pkgpath.Name" or
// "pkgpath.Recv.Name", with pointer receivers stripped.
func funcKey(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return ""
		}
		return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// namedOrAlias unwraps aliases and returns the core type of t.
func coreType(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// isMapType reports whether t's underlying type is a map.
func isMapType(t types.Type) bool {
	_, ok := coreType(t).(*types.Map)
	return ok
}
