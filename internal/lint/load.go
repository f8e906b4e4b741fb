package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// A Package is one type-checked compilation unit ready for analysis.
type Package struct {
	Path      string
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// TypeCheck parses files and type-checks them as package path using imp
// to resolve imports. It is the shared core of the standalone loader,
// the vettool mode, and the analysistest harness.
func TypeCheck(fset *token.FileSet, path string, filenames []string, imp types.Importer, goVersion string) (*Package, error) {
	var syntax []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		syntax = append(syntax, f)
	}
	info := NewInfo()
	conf := &types.Config{Importer: imp, GoVersion: goVersion}
	tpkg, err := conf.Check(path, fset, syntax, info)
	if err != nil {
		return nil, err
	}
	return &Package{Path: path, Fset: fset, Syntax: syntax, Types: tpkg, TypesInfo: info}, nil
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	Dir        string
	ImportPath string
	Export     string
	DepOnly    bool
	GoFiles    []string
	Module     *struct{ GoVersion string }
	Error      *struct{ Err string }
}

// LoadPatterns loads the packages matching the go list patterns (for
// example "./...") with full type information, using the go command to
// enumerate packages and produce export data for their dependencies.
// Only the matched packages themselves are returned; dependencies are
// consumed as compiled export data, mirroring how `go vet` drives a
// vettool unit by unit.
func LoadPatterns(dir string, patterns []string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-deps", "-export", "-json=Dir,ImportPath,Export,DepOnly,GoFiles,Module,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	var targets []*listPackage
	exports := make(map[string]string) // package path -> export data file
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		lp := new(listPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if !lp.DepOnly {
			targets = append(targets, lp)
		}
	}

	// One fileset and importer across every unit: the importer caches
	// dependency packages by path, so shared deps (sim, chain, ...)
	// are decoded from export data once, not once per target.
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	var pkgs []*Package
	for _, lp := range targets {
		if len(lp.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			files[i] = filepath.Join(lp.Dir, f)
		}
		goVersion := ""
		if lp.Module != nil && lp.Module.GoVersion != "" {
			goVersion = "go" + lp.Module.GoVersion
		}
		pkg, err := TypeCheck(fset, lp.ImportPath, files, imp, goVersion)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", lp.ImportPath, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
