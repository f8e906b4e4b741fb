package xdeal_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported functions and methods under
// internal/ that may stay without a caller in the non-test code of the
// main module, bench/ or examples/, each with the reason it stays. A key
// is the package's directory under internal/, then the receiver's type
// name for a method, then the name, joined by dots.
var exportAllowlist = map[string]string{
	"chain.Chain.TestEnv":         "fixture the contract packages' tests (escrow, timelock, cbc, htlc, token) invoke contracts through; a _test.go file cannot export it to them",
	"escrow.State.TotalDeposited": "conservation reader kept for the reference-model oracle that will check escrow ledgers after every step",
	"escrow.State.TotalOnCommit":  "conservation reader kept for the reference-model oracle that will check escrow ledgers after every step",
	"token.Fungible.TotalSupply":  "conservation reader kept for the reference-model oracle that will check token ledgers after every step",
	"gas.Meter.Labels":            "label listing the gas tests and engine's evaluation-twin test compare meters by",
	"gas.Meter.Snapshot":          "phase snapshot the contract packages' tests (cbc, escrow, timelock, token) measure one call's gas with",
	"gas.Snapshot.Sub":            "phase delta the contract packages' tests (cbc, escrow, timelock, token) measure one call's gas with",
	"hedge.Manager.Totals":        "pool ledger the hedge and engine tests reconcile against the premiums parties paid",
	"party.Behavior.Compliant":    "classifies a behaviour before any party is built; the arena and fleet tests check generated mixes with it",
	"obs.Counter.Value":           "metric reader the obs, engine and fleet tests check what a run registered with",
	"obs.Gauge.Value":             "metric reader the obs, engine and fleet tests check what a run registered with",
	"sim.Scheduler.Pending":       "queue depth the sim and party tests check a drained world by",
	"pow.NewManager":              "the paper's §6.2 PoW escrow contract, which the pow tests stage the private-fork attack against; no population deploys it",
	"pow.NewChain":                "block tree of the §6.2 PoW contract's attack tests (see pow.NewManager)",
	"pow.Chain.Extend":            "block tree of the §6.2 PoW contract's attack tests (see pow.NewManager)",
	"pow.Chain.Best":              "block tree of the §6.2 PoW contract's attack tests (see pow.NewManager)",
	"trace.Attribution.Sum":       "the conservation invariant (bucket sum equals Total) that the trace, engine and fleet tests assert",
}

// TestEveryExportHasACaller fails on an exported function or method
// under internal/ that nothing uses outside its own declaration in the
// non-test files of the main module, bench/ or examples/. Exported API
// with no production caller costs review and upkeep and shows nothing
// the simulator runs. A method that satisfies some interface the code
// declares or imports is exempt, since its calls go through the
// interface; so is every name in exportAllowlist.
func TestEveryExportHasACaller(t *testing.T) {
	l := &exportLoader{
		fset: token.NewFileSet(),
		pkgs: make(map[string]*exportPkg),
	}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if base := d.Name(); path != "." && (base == "testdata" || strings.HasPrefix(base, ".") || base == "bin" || base == "prof") {
			return filepath.SkipDir
		}
		if _, err := l.load(moduleImportPath(path)); err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	used := make(map[types.Object]bool)
	var ifaces []*types.Interface
	for _, p := range l.sorted() {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				var self types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = p.info.Defs[fd.Name]
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := p.info.Uses[id].(*types.Func); ok && fn.Origin() != self {
							used[fn.Origin()] = true
						}
					}
					return true
				})
			}
		}
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	for _, p := range l.stdPackages() {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	seen := make(map[string]bool)
	for _, p := range l.sorted() {
		if !strings.HasPrefix(p.path, "xdeal/internal/") {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				if used[fn] || satisfiesInterface(fn, ifaces) {
					continue
				}
				key := exportKey(p.path, fn)
				seen[key] = true
				if _, ok := exportAllowlist[key]; ok {
					continue
				}
				t.Errorf("%s: exported %s has no caller outside tests; delete it, move it into a _test.go file, or allowlist it with a reason",
					l.fset.Position(fd.Pos()), key)
			}
		}
	}
	for key, reason := range exportAllowlist {
		if !seen[key] {
			t.Errorf("exportAllowlist names %s, which is not an uncalled exported function or method under internal/", key)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("exportAllowlist entry %s gives no reason", key)
		}
	}
}

// exportKey names fn as exportAllowlist does.
func exportKey(pkgPath string, fn *types.Func) string {
	key := strings.TrimPrefix(pkgPath, "xdeal/internal/")
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		rt := recv.Type()
		if ptr, ok := rt.(*types.Pointer); ok {
			rt = ptr.Elem()
		}
		if named, ok := types.Unalias(rt).(*types.Named); ok {
			key += "." + named.Obj().Name()
		}
	}
	return key + "." + fn.Name()
}

// satisfiesInterface reports whether fn is a method whose receiver type,
// or a pointer to it, implements one of ifaces that declares fn's name.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	rt := recv.Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != fn.Name() {
				continue
			}
			if types.Implements(rt, it) || types.Implements(types.NewPointer(rt), it) {
				return true
			}
		}
	}
	return false
}

// moduleImportPath maps a directory relative to the repository root to
// its import path. bench/ is its own module, xdeal/bench, whose path
// continues the main module's.
func moduleImportPath(dir string) string {
	if dir == "." {
		return "xdeal"
	}
	return "xdeal/" + filepath.ToSlash(dir)
}

type exportPkg struct {
	path  string
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// exportLoader type-checks the repository's packages from their non-test
// files, once each, so every package sees the same objects for what it
// imports; the standard library comes from the source importer.
type exportLoader struct {
	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*exportPkg
}

func (l *exportLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, ".", 0)
}

func (l *exportLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "xdeal" || strings.HasPrefix(path, "xdeal/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

func (l *exportLoader) load(path string) (*exportPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := "."
	if path != "xdeal" {
		dir = filepath.FromSlash(strings.TrimPrefix(path, "xdeal/"))
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &exportPkg{path: path, info: &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}}
	for _, name := range bp.GoFiles {
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	p.pkg, err = conf.Check(path, l.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// sorted returns the loaded packages in import-path order.
func (l *exportLoader) sorted() []*exportPkg {
	out := make([]*exportPkg, 0, len(l.pkgs))
	for _, p := range l.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

// stdPackages returns every package outside the repository that a loaded
// package imports, directly or not.
func (l *exportLoader) stdPackages() []*types.Package {
	seen := make(map[*types.Package]bool)
	var out []*types.Package
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		for _, imp := range p.Imports() {
			if seen[imp] {
				continue
			}
			seen[imp] = true
			if _, ours := l.pkgs[imp.Path()]; !ours {
				out = append(out, imp)
			}
			walk(imp)
		}
	}
	for _, p := range l.sorted() {
		walk(p.pkg)
	}
	return out
}
