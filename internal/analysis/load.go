package analysis

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
	"strings"
)

// A Package is one type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
}

// LoadConfig controls package loading.
type LoadConfig struct {
	// Tests additionally parses in-package _test.go files. The fixture
	// harness uses this to exercise per-file test exemptions; the
	// command-line linter leaves it off, since the invariants guard the
	// production emission path. Test files may only import packages the
	// non-test files already import (the loader resolves imports from the
	// non-test dependency graph).
	Tests bool
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	Dir         string
	ImportPath  string
	Export      string
	GoFiles     []string
	TestGoFiles []string
	DepOnly     bool
	Error       *struct{ Err string }
}

// Load lists patterns with the go tool, parses every matched package from
// source, and type-checks it with imports satisfied from compiler export
// data (`go list -export`), so it needs no network and no pre-installed
// analysis modules. Patterns follow `go list` syntax; explicit directory
// patterns may point below testdata, which is how fixtures are loaded.
func Load(cfg LoadConfig, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-export", "-deps",
		"-json=Dir,ImportPath,Export,GoFiles,TestGoFiles,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := make(map[string]string)
	var targets []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	var pkgs []*Package
	for _, t := range targets {
		fileNames := append([]string(nil), t.GoFiles...)
		if cfg.Tests {
			fileNames = append(fileNames, t.TestGoFiles...)
		}
		if len(fileNames) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range fileNames {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %v", name, err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(t.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", t.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			ImportPath: t.ImportPath,
			Fset:       fset,
			Files:      files,
			Types:      tpkg,
			TypesInfo:  info,
		})
	}
	return pkgs, nil
}

// isTestFile reports whether the file containing pos is a _test.go file.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
