package vetstm

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SideEffect flags irrevocable side effects inside atomic bodies that may
// re-execute. An atomic body runs again after every abort — under
// contention, dozens of times — and the STM can only roll back
// transactional state. I/O, logging, channel operations, goroutine
// launches, and global-RNG draws performed in the body are repeated on
// every attempt (the Section 5 argument for irrevocability support).
// Bodies passed to AtomicIrrevocable, and code after a
// tx.BecomeIrrevocable() switch, are exempt: past the switch the body
// never re-executes, which is exactly what those APIs are for.
var SideEffect = &Analyzer{
	Name: "sideeffect",
	Doc:  "report re-executable side effects inside atomic bodies",
	Run:  runSideEffect,
}

// effectFuncs maps package-path suffix → function names whose call is a
// visible side effect. An empty set means every function in the package.
var effectFuncs = map[string]map[string]bool{
	"fmt": {
		"Print": true, "Printf": true, "Println": true,
		"Fprint": true, "Fprintf": true, "Fprintln": true,
		"Scan": true, "Scanf": true, "Scanln": true,
	},
	"log":          {}, // all of log: every call writes
	"math/rand":    {}, // package-level funcs draw from the shared global RNG
	"math/rand/v2": {},
	"os": {
		"Create": true, "OpenFile": true, "Remove": true, "RemoveAll": true,
		"Mkdir": true, "MkdirAll": true, "WriteFile": true, "Rename": true,
		"Symlink": true, "Link": true, "Truncate": true, "Chdir": true,
		"Setenv": true, "Unsetenv": true, "Exit": true, "StartProcess": true,
	},
	"time": {
		"Sleep": true, "Now": true, "Since": true, "Until": true,
		"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
		"AfterFunc": true,
	},
}

func runSideEffect(pass *Pass) {
	forEachBody(pass, func(b bodyFunc) {
		if b.irrevocable {
			return
		}
		switchPos := irrevocableSwitchPos(pass, b)
		exempt := func(n ast.Node) bool {
			return switchPos >= 0 && int(n.Pos()) > switchPos
		}
		ast.Inspect(b.body, func(n ast.Node) bool {
			// Side effects inside a nested transactional body are that
			// body's problem (it is visited separately, with its own
			// irrevocability context).
			if fl, ok := n.(*ast.FuncLit); ok && n != b.node && txnParam(pass.Info, fl.Type) != nil {
				return false
			}
			switch n := n.(type) {
			case *ast.CallExpr:
				if exempt(n) {
					return true
				}
				if pkg, name, ok := calleePkgFunc(pass.Info, n); ok {
					if names, found := effectFuncs[pkg]; found && (len(names) == 0 || names[name]) {
						pass.Reportf(n.Pos(),
							"%s.%s inside an atomic body: the body re-executes after every abort, repeating the effect — move it after commit, or run under AtomicIrrevocable/BecomeIrrevocable",
							pkg, name)
					}
				} else if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
					if bi, isB := pass.Info.Uses[id].(*types.Builtin); isB && (bi.Name() == "print" || bi.Name() == "println" || bi.Name() == "close") {
						pass.Reportf(n.Pos(),
							"%s inside an atomic body: the body re-executes after every abort, repeating the effect — move it after commit, or run under AtomicIrrevocable/BecomeIrrevocable",
							bi.Name())
					}
				}
			case *ast.SendStmt:
				if !exempt(n) {
					pass.Reportf(n.Pos(),
						"channel send inside an atomic body: a send cannot be rolled back and repeats on every re-execution — communicate after commit")
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && !exempt(n) {
					pass.Reportf(n.Pos(),
						"channel receive inside an atomic body: the received value is consumed even if the attempt aborts, and the receive repeats on re-execution")
				}
			case *ast.GoStmt:
				if !exempt(n) {
					pass.Reportf(n.Pos(),
						"goroutine launched inside an atomic body: one goroutine per attempt is launched, and none can be taken back on abort")
				}
			}
			return true
		})
	})
}

// calleePkgFunc resolves a call to (package-path-suffix, function name)
// when the callee is a package-level function of a known package.
func calleePkgFunc(info *types.Info, call *ast.CallExpr) (string, string, bool) {
	se, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	fn, ok := info.Uses[se.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", "", false
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return "", "", false // methods (e.g. a local *rand.Rand) are thread-confined state
	}
	path := fn.Pkg().Path()
	for pkg := range effectFuncs {
		if path == pkg {
			return pkg, fn.Name(), true
		}
	}
	return "", "", false
}
