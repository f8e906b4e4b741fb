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
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names the exported functions and methods under
// internal/ that may stay without a caller in the non-test code of the
// main module, bench/ or examples/, each with the reason it stays. A key
// is the package's directory under internal/, then the receiver's type
// name for a method, then the name, joined by dots.
var exportAllowlist = map[string]string{
	"chain.Chain.TestEnv":                "fixture the contract packages' tests (escrow, timelock, cbc, htlc, token) invoke contracts through; a _test.go file cannot export it to them",
	"escrow.State.TotalDeposited":        "conservation reader kept for the reference-model oracle that will check escrow ledgers after every step",
	"escrow.State.TotalOnCommit":         "conservation reader kept for the reference-model oracle that will check escrow ledgers after every step",
	"token.Fungible.TotalSupply":         "conservation reader kept for the reference-model oracle that will check token ledgers after every step",
	"gas.Meter.Labels":                   "label listing the gas tests and engine's evaluation-twin test compare meters by",
	"gas.Meter.Snapshot":                 "phase snapshot the contract packages' tests (cbc, escrow, timelock, token) measure one call's gas with",
	"gas.Snapshot.Sub":                   "phase delta the contract packages' tests (cbc, escrow, timelock, token) measure one call's gas with",
	"hedge.Manager.Totals":               "pool ledger the hedge and engine tests reconcile against the premiums parties paid",
	"party.Behavior.Compliant":           "classifies a behaviour before any party is built; the arena and fleet tests check generated mixes with it",
	"obs.Counter.Value":                  "metric reader the obs, engine and fleet tests check what a run registered with",
	"obs.Gauge.Value":                    "metric reader the obs, engine and fleet tests check what a run registered with",
	"sim.Scheduler.Pending":              "queue depth the sim and party tests check a drained world by",
	"pow.NewManager":                     "the paper's §6.2 PoW escrow contract, which the pow tests stage the private-fork attack against; no population deploys it",
	"pow.NewChain":                       "block tree of the §6.2 PoW contract's attack tests (see pow.NewManager)",
	"pow.Chain.Extend":                   "block tree of the §6.2 PoW contract's attack tests (see pow.NewManager)",
	"pow.Chain.Best":                     "block tree of the §6.2 PoW contract's attack tests (see pow.NewManager)",
	"trace.Attribution.Sum":              "the conservation invariant (bucket sum equals Total) that the trace, engine and fleet tests assert",
	"escrow.notActiveError.Unwrap":       "errors.Is reaches it through an anonymous interface, so a rejected call still matches ErrNotActive",
	"timelock.duplicateVoteError.Unwrap": "errors.Is reaches it through an anonymous interface, so a repeated vote still matches ErrDuplicateVote",
}

// TestEveryExportHasACaller fails on an exported function or method
// under internal/ that nothing uses outside its own declaration in the
// non-test files of the main module, bench/ or examples/. Exported API
// with no production caller costs review and upkeep and shows nothing
// the simulator runs. A method that satisfies some interface the code
// declares or imports is exempt, since its calls go through the
// interface; so is every name in exportAllowlist.
func TestEveryExportHasACaller(t *testing.T) {
	l := loadRepository(t)
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

// loadRepository type-checks the non-test files of every package in the
// main module, bench/ and examples/.
func loadRepository(t *testing.T) *exportLoader {
	t.Helper()
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
	return l
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

// fieldAllowlist names the struct fields under internal/ that may stay
// although no non-test code in the main module, bench/ or examples/
// reads them, each with the reason it stays. A key is the package's
// directory under internal/, then the struct type's name, then the
// field's, joined by dots; a key that stops at the type's name covers
// every field of the type.
var fieldAllowlist = map[string]string{
	"hedge.BoundEvent":   "event payload the trace prints whole (engine.renderEventData formats it with %v)",
	"hedge.SettledEvent": "event payload the trace prints whole (engine.renderEventData formats it with %v)",
	"htlc.ClaimedEvent":  "event payload the trace prints whole (engine.renderEventData formats it with %v)",
	"htlc.LockedEvent":   "event payload the trace prints whole (engine.renderEventData formats it with %v)",
	"htlc.RefundedEvent": "event payload the trace prints whole (engine.renderEventData formats it with %v)",

	"harness.AblationRow":       "row of the §6.2 proof-format table; the harness tests assert its cells, and F and Reconfigs name the row",
	"harness.AbortTimeRow":      "row of the abort-latency table; the harness tests assert Aborted",
	"harness.GasRow":            "row of the gas table; the harness tests and the root benchmarks read its cells, and F and Protocol name the row",
	"harness.SwapComparisonRow": "row of the swap comparison; the harness tests assert its verdicts, and N names the row",
	"harness.TimeRow":           "row of the Figure 7 timing table; the harness tests name failing rows by N",
	"harness.TransferDepthRow":  "row of the transfer-depth table; the harness tests assert both shapes committed",

	"chain.Event.Height":                "block an event was published in; the chain and cbc tests check delivery against it",
	"chain.Receipt.BaseFee":             "base fee a receipt's block charged; the chain, feemarket and fleet tests reconcile fee ledgers with it",
	"chain.PendingTx.Chain":             "gossip call data a mempool observer sees; the chain tests check that the whole call leaks",
	"chain.PendingTx.Contract":          "gossip call data a mempool observer sees; the chain tests check that the whole call leaks",
	"chain.PendingTx.Label":             "gossip call data a mempool observer sees; the chain tests check that the whole call leaks",
	"chain.BundleGossip.Bid":            "bundle-bid gossip an observer sees; the chain tests check that the aggregate bid leaks",
	"chain.BundleGossip.Slots":          "bundle-bid gossip an observer sees; the chain tests check that the bundle size leaks",
	"chain.BundleFate.Bid":              "auction record the chain's bundle tests check inclusion tips and deferral counts against",
	"chain.BundleFate.Deferrals":        "auction record the chain's bundle tests check inclusion tips and deferral counts against",
	"chain.BundleFate.Slots":            "auction record the chain's bundle tests check inclusion tips and deferral counts against",
	"chain.AuctionRecord.LooseIncluded": "count of loose transactions in a bundled block, which only the chain's residual-capacity test reads",
	"bundle.Outcome.Deferred":           "auction outcome the bundle fuzz test checks capacity, the revenue floor and deferral rounds against",
	"bundle.Outcome.FIFORevenue":        "auction outcome the bundle fuzz test checks capacity, the revenue floor and deferral rounds against",
	"bundle.Outcome.Revenue":            "auction outcome the bundle fuzz test checks capacity, the revenue floor and deferral rounds against",
	"bundle.Outcome.SlotsUsed":          "auction outcome the bundle fuzz test checks capacity, the revenue floor and deferral rounds against",
	"cbc.Block.Reconfig":                "committee change a CBC block carries; the cbc and sig tests check reconfiguration blocks by it",
	"engine.Result.CBCGas":              "CBC service gas, a term of the deviation-twin digest the fleet test compares with its golden file",
	"hedge.BindResult.Surcharge":        "bundle-loss surcharge a bind returns, which the hedge pricing test checks",
	"arena.HedgeSample.Streak":          "bundle-loss streak at bind, which the arena surcharge test checks",
	"incentive.View.Deposits":           "the deposit vault's query result, which its tests read",
	"incentive.View.Forfeited":          "the deposit vault's query result, which its tests read",
	"incentive.View.Settled":            "the deposit vault's query result, which its tests read",
	"htlc.Swap.Refunds":                 "counter only the htlc tests read",
}

// TestEveryFieldIsRead fails on a struct field under internal/ that the
// non-test code of the main module, bench/ and examples/ writes, or
// names as a composite-literal key, but never reads. State nothing reads
// costs a write per use, and a reader who must find out that it changes
// nothing. A field with a json tag other than "-" is read by the
// encoder, and an embedded field is read through what it promotes, so
// both are exempt; so is every field fieldAllowlist covers.
func TestEveryFieldIsRead(t *testing.T) {
	l := loadRepository(t)
	read := make(map[*types.Var]bool)
	for _, p := range l.sorted() {
		for _, f := range p.files {
			writes := fieldWrites(p.info, f)
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || writes[id] {
					return true
				}
				if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() {
					read[v.Origin()] = true
				}
				return true
			})
		}
	}

	seen := make(map[string]bool)
	for _, p := range l.sorted() {
		if !strings.HasPrefix(p.path, "xdeal/internal/") {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				typeKey := strings.TrimPrefix(p.path, "xdeal/internal/") + "." + ts.Name.Name
				for _, field := range st.Fields.List {
					if field.Tag != nil {
						tag, _ := strconv.Unquote(field.Tag.Value)
						if name, ok := reflect.StructTag(tag).Lookup("json"); ok && name != "-" {
							continue
						}
					}
					for _, name := range field.Names {
						if name.Name == "_" || read[p.info.Defs[name].(*types.Var)] {
							continue
						}
						key := typeKey + "." + name.Name
						if _, ok := fieldAllowlist[typeKey]; ok {
							seen[typeKey] = true
							continue
						}
						seen[key] = true
						if _, ok := fieldAllowlist[key]; ok {
							continue
						}
						t.Errorf("%s: field %s is never read outside tests; delete it, fold it into the value it restates, or allowlist it with a reason",
							l.fset.Position(name.Pos()), key)
					}
				}
				return true
			})
		}
	}
	for key, reason := range fieldAllowlist {
		if !seen[key] {
			t.Errorf("fieldAllowlist names %s, which has no unread struct field under internal/", key)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("fieldAllowlist entry %s gives no reason", key)
		}
	}
}

// fieldWrites returns the field identifiers in f that only write their
// field: the field an assignment or an increment stores to, directly or
// through an index into it, and the field a composite-literal key names.
// In x.f = append(x.f, …) the append's x.f is part of the write.
func fieldWrites(info *types.Info, f *ast.File) map[*ast.Ident]bool {
	writes := make(map[*ast.Ident]bool)
	stored := func(e ast.Expr) *ast.Ident {
		for {
			switch x := e.(type) {
			case *ast.IndexExpr:
				e = x.X
				continue
			case *ast.SelectorExpr:
				if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
					return x.Sel
				}
			}
			return nil
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id := stored(lhs)
				if id == nil {
					continue
				}
				writes[id] = true
				if len(n.Lhs) != len(n.Rhs) {
					continue
				}
				call, ok := n.Rhs[i].(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					continue
				}
				if fn, ok := call.Fun.(*ast.Ident); !ok || info.Uses[fn] != types.Universe.Lookup("append") {
					continue
				}
				if sel, ok := call.Args[0].(*ast.SelectorExpr); ok && info.Uses[sel.Sel] == info.Uses[id] {
					writes[sel.Sel] = true
				}
			}
		case *ast.IncDecStmt:
			if id := stored(n.X); id != nil {
				writes[id] = true
			}
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
					writes[id] = true
				}
			}
		}
		return true
	})
	return writes
}
