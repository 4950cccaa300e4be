// Command stmvet runs the vetstm static-analysis suite — the isolation
// and ordering discipline the paper enforces with compiler barriers,
// applied to Go code that embeds the STM libraries directly.
//
// Standalone:
//
//	stmvet ./...                         # analyze packages in the module
//	stmvet -passes sideeffect,ctxmisuse ./cmd/... ./examples/...
//	stmvet -include-tests ./...          # opt _test.go files in
//	stmvet -json ./...                   # machine-readable diagnostics
//
// Whole-program barrier elision (the NAIT/TL analyses over the Go
// embedding) emits a manifest internal/objmodel can load:
//
//	stmvet elide -o elide_manifest.json ./internal/workloads/...
//
// As a go vet backend (the unitchecker protocol: go vet compiles each
// package, hands the tool a .cfg with sources and export data, and relays
// its diagnostics):
//
//	go vet -vettool=$(which stmvet) ./...
//
// Exit status is 1 when any diagnostic is reported. Findings can be
// suppressed with `//stmvet:ignore <pass>` comments (see package vetstm).
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"strings"

	"repro/internal/vetstm"
	"repro/internal/vetstm/interproc"
	"repro/internal/vetstm/vetload"
)

func main() {
	// The go vet handshake probes come before normal flag parsing.
	if len(os.Args) == 2 {
		switch {
		case strings.HasPrefix(os.Args[1], "-V="):
			handshake(os.Args[1])
			return
		case os.Args[1] == "-flags":
			// No tool-specific flags are exposed through go vet; pass
			// selection happens via standalone mode or ignore comments.
			fmt.Println("[]")
			return
		case strings.HasSuffix(os.Args[1], ".cfg"):
			os.Exit(unitcheck(os.Args[1]))
		}
	}
	if len(os.Args) > 1 && os.Args[1] == "elide" {
		os.Exit(runElide(os.Args[2:]))
	}
	passSpec := flag.String("passes", "", "comma-separated pass subset (default: all)")
	list := flag.Bool("list", false, "list available passes and exit")
	dir := flag.String("C", ".", "directory to resolve patterns in")
	includeTests := flag.Bool("include-tests", false, "analyze _test.go files too (default: exempt)")
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON on stdout")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: stmvet [-passes p1,p2] [-C dir] [-include-tests] [-json] [packages]\n")
		fmt.Fprintf(os.Stderr, "       stmvet elide [-o manifest.json] [-v] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range vetstm.All() {
			fmt.Printf("%-13s %s\n", a.Name, a.Doc)
		}
		return
	}
	analyzers, err := vetstm.ByName(*passSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := vetload.ModuleDir(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	load := vetload.Load
	if *includeTests {
		load = vetload.LoadTests
	}
	pkgs, err := load(root, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var diags []vetstm.Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, vetstm.RunTests(pkg, analyzers, *includeTests)...)
	}
	if *jsonOut {
		if err := writeJSONDiags(os.Stdout, diags); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "stmvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// jsonDiag is the stable machine-readable diagnostic schema for -json.
type jsonDiag struct {
	Pass    string `json:"pass"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Message string `json:"message"`
}

func writeJSONDiags(w io.Writer, diags []vetstm.Diagnostic) error {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			Pass:    d.Pass,
			File:    d.Position.Filename,
			Line:    d.Position.Line,
			Column:  d.Position.Column,
			Message: d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// runElide implements `stmvet elide`: the whole-program NAIT/TL analyses
// over the listed packages, emitting the barrier-elision manifest.
func runElide(args []string) int {
	fs := flag.NewFlagSet("stmvet elide", flag.ExitOnError)
	out := fs.String("o", "elide_manifest.json", "manifest output path ('-' for stdout)")
	dir := fs.String("C", ".", "directory to resolve patterns in")
	verbose := fs.Bool("v", false, "print per-site classifications")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: stmvet elide [-o manifest.json] [-v] [packages]\n")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := vetload.ModuleDir(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	pkgs, err := vetload.Load(root, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	res, err := interproc.Analyze(pkgs, interproc.Options{Tool: "stmvet elide"})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	res.Manifest.Module = modulePath(root)
	if *verbose {
		for _, si := range res.Sites {
			fmt.Fprintf(os.Stderr, "%-24s %-8s %s (%s)\n",
				fmt.Sprintf("%s:%d", si.File, si.Line), si.Class, si.Func, si.Reason)
		}
	}
	st := res.Stats
	fmt.Fprintf(os.Stderr,
		"stmvet elide: %d package(s), %d function(s) (%d txn-reachable), %d site(s), %d elidable\n",
		st.Packages, st.Functions, st.TxnReachable, st.Sites, st.Elidable)
	if *out == "-" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res.Manifest); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		return 0
	}
	if err := res.Manifest.WriteFile(*out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "stmvet elide: wrote %s\n", *out)
	return 0
}

// modulePath reads the module path from root's go.mod.
func modulePath(root string) string {
	data, err := os.ReadFile(root + "/go.mod")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// handshake answers `stmvet -V=full`, which cmd/go uses to fingerprint
// the tool for its action cache. The content hash of the binary keys the
// cache, so rebuilding stmvet invalidates stale vet results.
func handshake(arg string) {
	name := "stmvet"
	if arg != "-V=full" {
		fmt.Printf("%s version devel\n", name)
		return
	}
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			_, _ = io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("%s version devel buildID=%x\n", name, h.Sum(nil))
}

// vetCfg is the JSON configuration cmd/go hands a -vettool for each
// package (the unitchecker protocol).
type vetCfg struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func unitcheck(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var cfg vetCfg
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "stmvet: parsing %s: %v\n", cfgPath, err)
		return 2
	}
	// stmvet exports no facts, but cmd/go expects the output file.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		files = append(files, f)
	}
	resolve := func(path string) (string, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		f, ok := cfg.PackageFile[path]
		if !ok {
			return "", fmt.Errorf("no export data for %q", path)
		}
		return f, nil
	}
	tpkg, info, err := vetload.Check(cfg.ImportPath, fset, files, resolve)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "stmvet: typechecking %s: %v\n", cfg.ImportPath, err)
		return 2
	}
	pkg := &vetstm.Package{PkgPath: cfg.ImportPath, Fset: fset, Files: files, Types: tpkg, Info: info}
	diags := vetstm.Run(pkg, vetstm.All())
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
