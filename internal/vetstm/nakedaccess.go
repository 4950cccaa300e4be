package vetstm

import (
	"go/ast"
	"go/types"
)

// NakedAccess flags direct (unbarriered) slot accesses to a managed
// object that the same package elsewhere accesses transactionally. A
// location touched through Txn.Read/Txn.Write is protected by the STM's
// ownership records; reaching the same location via Object.LoadSlot /
// Object.StoreSlot (or the raw Slots array) bypasses every barrier and is
// precisely the strong-atomicity violation the paper's Figure 9 barriers
// exist to stop — a naked read can observe a doomed transaction's
// uncommitted write (eager) or a torn write-back (lazy), and a naked
// write can be swallowed by a transaction's rollback. Non-transactional
// code should go through the barriered accessors (core.System.Read/Write)
// instead.
var NakedAccess = &Analyzer{
	Name: "nakedaccess",
	Doc:  "report unbarriered slot accesses to transactionally-shared objects",
	Run:  runNakedAccess,
}

// txnAccessorNames are Txn methods whose first argument opens a managed
// object transactionally.
var txnAccessorNames = map[string]bool{
	"Read": true, "Write": true, "ReadRef": true, "WriteRef": true,
}

// nakedMethodNames are objmodel.Object methods that touch slots with no
// barrier.
var nakedMethodNames = map[string]bool{
	"LoadSlot": true, "StoreSlot": true,
}

func runNakedAccess(pass *Pass) {
	// Pass 1: every variable that is opened transactionally somewhere in
	// the package — the first argument of tx.Read/Write/ReadRef/WriteRef.
	shared := make(map[*types.Var]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			if _, name, ok := txnMethodCall(pass.Info, call); ok && txnAccessorNames[name] {
				if v := identVar(pass.Info, call.Args[0]); v != nil && isManagedObject(v.Type()) {
					shared[v] = true
				}
			}
			return true
		})
	}
	if len(shared) == 0 {
		return
	}
	// Pass 2: naked accesses to those same variables.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				se, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || !nakedMethodNames[se.Sel.Name] {
					return true
				}
				v := identVar(pass.Info, se.X)
				if v == nil || !shared[v] {
					return true
				}
				if fn, ok := pass.Info.Uses[se.Sel].(*types.Func); !ok || fn.Pkg() == nil || !PathHasTail(fn.Pkg().Path(), PkgObjModel) {
					return true
				}
				pass.Reportf(n.Pos(),
					"naked %s on %s, which is accessed transactionally elsewhere in this package: the unbarriered access can see or tear uncommitted transactional state — use the transaction (tx.Read/tx.Write) or the barriered System accessors",
					se.Sel.Name, v.Name())
			case *ast.SelectorExpr:
				// v.Slots[i]... — reaching into the raw slot array.
				if n.Sel.Name != "Slots" {
					return true
				}
				v := identVar(pass.Info, n.X)
				if v == nil || !shared[v] || !isManagedObject(v.Type()) {
					return true
				}
				pass.Reportf(n.Pos(),
					"raw Slots access on %s, which is accessed transactionally elsewhere in this package: bypassing the barriers breaks strong atomicity",
					v.Name())
			}
			return true
		})
	}
}
