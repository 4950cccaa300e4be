// Package vetload loads type-checked packages for the vetstm passes
// without any dependency outside the standard library. It shells out to
// `go list -json -export -deps` to enumerate packages and compile export
// data (the build cache makes repeat runs cheap), parses the target
// packages from source, and type-checks them with the gc importer reading
// the export files — the same shape golang.org/x/tools/go/packages
// provides, reduced to what a vet driver needs.
package vetload

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

	"repro/internal/vetstm"
)

// ListedPackage is the subset of `go list -json` output the loader uses.
type ListedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	Export     string
	DepOnly    bool
	ForTest    string // set on test variants listed by `go list -test`
	Error      *struct{ Err string }
}

// List runs `go list -e -json -export -deps patterns...` in dir.
func List(dir string, patterns ...string) ([]*ListedPackage, error) {
	return list(dir, false, patterns...)
}

func list(dir string, withTests bool, patterns ...string) ([]*ListedPackage, error) {
	args := []string{"list", "-e", "-json", "-export", "-deps"}
	if withTests {
		args = append(args, "-test")
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []*ListedPackage
	dec := json.NewDecoder(&stdout)
	for {
		p := new(ListedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Exports returns the import-path → export-data-file map for patterns and
// all their dependencies.
func Exports(dir string, patterns ...string) (map[string]string, error) {
	pkgs, err := List(dir, patterns...)
	if err != nil {
		return nil, err
	}
	m := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			m[p.ImportPath] = p.Export
		}
	}
	return m, nil
}

// Load lists patterns in dir and type-checks every matched (non-dep-only)
// package from source. Test files are excluded, matching `go vet`'s
// per-package compile units.
func Load(dir string, patterns ...string) ([]*vetstm.Package, error) {
	return load(dir, false, patterns...)
}

// LoadTests is Load with _test.go files included: each matched package
// with in-package test files is loaded as its test-augmented variant, and
// external (package foo_test) test packages become their own units. The
// synthetic test mains are skipped.
func LoadTests(dir string, patterns ...string) ([]*vetstm.Package, error) {
	return load(dir, true, patterns...)
}

// baseImportPath strips the test-variant suffix: "pkg [pkg.test]" → "pkg".
func baseImportPath(ip string) string {
	if i := strings.Index(ip, " ["); i >= 0 {
		return ip[:i]
	}
	return ip
}

func load(dir string, withTests bool, patterns ...string) ([]*vetstm.Package, error) {
	listed, err := list(dir, withTests, patterns...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	for _, p := range listed {
		if p.Export == "" {
			continue
		}
		if p.ForTest == "" {
			if _, ok := exports[p.ImportPath]; !ok {
				exports[p.ImportPath] = p.Export
			}
			continue
		}
		// A test variant's export data supersedes the plain package's (it
		// is a superset: in-package test symbols are visible to external
		// test packages importing it).
		exports[baseImportPath(p.ImportPath)] = p.Export
	}
	resolve := func(path string) (string, error) {
		f, ok := exports[path]
		if !ok {
			return "", fmt.Errorf("no export data for %q", path)
		}
		return f, nil
	}
	// Plain packages superseded by an in-package test variant.
	augmented := make(map[string]bool)
	if withTests {
		for _, p := range listed {
			if p.ForTest != "" && baseImportPath(p.ImportPath) == p.ForTest {
				augmented[p.ForTest] = true
			}
		}
	}
	var out []*vetstm.Package
	for _, p := range listed {
		if p.DepOnly || len(p.GoFiles) == 0 {
			continue
		}
		pkgPath := p.ImportPath
		if p.ForTest != "" {
			pkgPath = baseImportPath(p.ImportPath)
		} else if strings.HasSuffix(pkgPath, ".test") || augmented[pkgPath] {
			continue // synthetic test main, or replaced by its test variant
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		fset := token.NewFileSet()
		var files []*ast.File
		for _, name := range p.GoFiles {
			path := name
			if !filepath.IsAbs(path) {
				path = filepath.Join(p.Dir, name)
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("%s: %v", p.ImportPath, err)
			}
			files = append(files, f)
		}
		tpkg, info, err := Check(pkgPath, fset, files, resolve)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.ImportPath, err)
		}
		out = append(out, &vetstm.Package{
			PkgPath: pkgPath,
			Fset:    fset,
			Files:   files,
			Types:   tpkg,
			Info:    info,
		})
	}
	return out, nil
}

// Check type-checks files as one package, resolving each import through
// resolve (import path → compiled export-data file).
func Check(pkgPath string, fset *token.FileSet, files []*ast.File, resolve func(string) (string, error)) (*types.Package, *types.Info, error) {
	lookup := func(path string) (io.ReadCloser, error) {
		f, err := resolve(path)
		if err != nil {
			return nil, err
		}
		return os.Open(f)
	}
	conf := types.Config{
		Importer: unsafeAware{importer.ForCompiler(fset, "gc", lookup)},
	}
	info := &types.Info{
		Types:     make(map[ast.Expr]types.TypeAndValue),
		Defs:      make(map[*ast.Ident]types.Object),
		Uses:      make(map[*ast.Ident]types.Object),
		Implicits: make(map[ast.Node]types.Object),
	}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

type unsafeAware struct{ base types.Importer }

func (i unsafeAware) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return i.base.Import(path)
}

// ModuleDir walks up from dir to the enclosing go.mod directory, so the
// driver can be invoked from a subdirectory.
func ModuleDir(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod above %s", abs)
		}
		d = parent
	}
}
