package vetstm

import (
	"go/ast"
	"go/types"
	"strings"
)

// The STM surface the passes recognize, by package-path suffix. Matching
// on suffixes keeps the suite working if the module path changes. This is
// the one table: the whole-program analysis (package interproc) reads it
// too, so a runtime added here is visible to every pass at once.
const (
	PkgSTM      = "internal/stm"
	PkgLazySTM  = "internal/lazystm"
	PkgMVSTM    = "internal/mvstm"
	PkgSTMAPI   = "internal/stmapi"
	PkgTxn      = "internal/txn"
	PkgCore     = "internal/core"
	PkgObjModel = "internal/objmodel"
	PkgStrong   = "internal/strong"
)

// stmPkgTails are the packages that declare atomic entry points. A runtime's
// Atomic, AtomicCtx and AtomicIrrevocable are the kernel's, promoted: they
// resolve to methods declared in internal/txn. mvstm adds AtomicRead.
var stmPkgTails = []string{PkgTxn, PkgMVSTM, PkgSTMAPI, PkgCore}

// PathHasTail reports whether the package path is tail or ends in /tail.
func PathHasTail(path, tail string) bool {
	return path == tail || strings.HasSuffix(path, "/"+tail)
}

// namedIn reports whether t (after stripping one pointer and aliases) is
// the named type `name` declared in a package whose path ends in tail.
func namedIn(t types.Type, tail, name string) bool {
	t = types.Unalias(t)
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	} else if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return PathHasTail(obj.Pkg().Path(), tail)
}

// IsTxnType reports whether t is a transaction handle: *stm.Txn,
// *lazystm.Txn, *mvstm.Txn, or stmapi.Txn (core.Tx is an alias of it).
func IsTxnType(t types.Type) bool {
	return namedIn(t, PkgSTM, "Txn") ||
		namedIn(t, PkgLazySTM, "Txn") ||
		namedIn(t, PkgMVSTM, "Txn") ||
		namedIn(t, PkgSTMAPI, "Txn")
}

// isManagedObject reports whether t is a managed-heap object handle
// (*objmodel.Object; core.Obj is an alias of it).
func isManagedObject(t types.Type) bool {
	return namedIn(t, PkgObjModel, "Object")
}

// atomicEntryNames are the runtime methods that start an atomic block.
var atomicEntryNames = map[string]bool{
	"Atomic":            true,
	"AtomicCtx":         true,
	"AtomicIrrevocable": true,
	"AtomicRead":        true,
}

// IsAtomicEntry reports whether fn is an atomic entry point of one of the
// STM packages.
func IsAtomicEntry(fn *types.Func) bool {
	if fn.Pkg() == nil || !atomicEntryNames[fn.Name()] {
		return false
	}
	for _, tail := range stmPkgTails {
		if PathHasTail(fn.Pkg().Path(), tail) {
			return true
		}
	}
	return false
}

// atomicCall reports whether call invokes an atomic entry point of one of
// the STM packages and returns the method name.
func atomicCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	se, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := info.Uses[se.Sel].(*types.Func)
	if !ok || !IsAtomicEntry(fn) {
		return "", false
	}
	return se.Sel.Name, true
}

// txnMethodCall returns the transaction variable and method name when
// call is `tx.Method(...)` on a transaction-typed variable tx.
func txnMethodCall(info *types.Info, call *ast.CallExpr) (*types.Var, string, bool) {
	se, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	id, ok := ast.Unparen(se.X).(*ast.Ident)
	if !ok {
		return nil, "", false
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || !IsTxnType(v.Type()) {
		return nil, "", false
	}
	return v, se.Sel.Name, true
}

// identVar resolves e to the variable it names, if it is a plain
// identifier.
func identVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}

// bodyFunc is a function that executes transactionally: a func literal or
// declaration with a transaction-typed parameter.
type bodyFunc struct {
	node        ast.Node // *ast.FuncDecl or *ast.FuncLit
	body        *ast.BlockStmt
	ftype       *ast.FuncType
	txn         *types.Var // the transaction parameter
	irrevocable bool       // literal passed directly to AtomicIrrevocable
}

// txnParam returns the first transaction-typed parameter of ft, or nil.
func txnParam(info *types.Info, ft *ast.FuncType) *types.Var {
	if ft.Params == nil {
		return nil
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if v, ok := info.Defs[name].(*types.Var); ok && IsTxnType(v.Type()) {
				return v
			}
		}
	}
	return nil
}

// looksLikeBody distinguishes an atomic body (or a transactional helper)
// from a runtime callback that merely receives a transaction. Bodies and
// helpers return an error (the abort channel) or hand the transaction on
// (a txn-typed result); a callback such as txn.Kernel.ForEach's visitor
// takes a *Txn and returns something else (or nothing) — it does not run
// as part of the transaction, may legally perform effects, and is not
// checked.
func looksLikeBody(info *types.Info, ft *ast.FuncType) bool {
	if ft.Results == nil {
		return false
	}
	for _, f := range ft.Results.List {
		t := info.TypeOf(f.Type)
		if t == nil {
			continue
		}
		if IsTxnType(t) {
			return true
		}
		if named, ok := types.Unalias(t).(*types.Named); ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
			return true
		}
	}
	return false
}

// forEachBody invokes fn for every transactional body function in the
// package: func literals passed to an Atomic entry point, plus literals
// and declarations that take a transaction parameter and look like a body
// (see looksLikeBody). Bodies passed directly to AtomicIrrevocable are
// marked irrevocable (side effects are legal there — the body runs at
// most once past the irrevocable switch).
func forEachBody(pass *Pass, fn func(bodyFunc)) {
	// First pass: literals that are arguments of Atomic-family calls.
	atomicLits := make(map[*ast.FuncLit]string)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := atomicCall(pass.Info, call); ok {
				for _, arg := range call.Args {
					if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
						atomicLits[lit] = name
					}
				}
			}
			return true
		})
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil {
					return true
				}
				if v := txnParam(pass.Info, n.Type); v != nil && looksLikeBody(pass.Info, n.Type) {
					fn(bodyFunc{node: n, body: n.Body, ftype: n.Type, txn: v})
				}
			case *ast.FuncLit:
				entry, isAtomicArg := atomicLits[n]
				if !isAtomicArg && !looksLikeBody(pass.Info, n.Type) {
					return true
				}
				if v := txnParam(pass.Info, n.Type); v != nil {
					fn(bodyFunc{node: n, body: n.Body, ftype: n.Type, txn: v, irrevocable: entry == "AtomicIrrevocable"})
				}
			}
			return true
		})
	}
}

// irrevocableSwitchPos returns the position after which the body is
// irrevocable: the end of the first `tx.BecomeIrrevocable()` call on the
// body's transaction parameter, or 0 if there is none. Code past that
// point never re-executes, so side effects there are legal.
func irrevocableSwitchPos(pass *Pass, b bodyFunc) (pos int) {
	pos = -1
	ast.Inspect(b.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if v, name, ok := txnMethodCall(pass.Info, call); ok && name == "BecomeIrrevocable" && v == b.txn {
			if pos < 0 || int(call.End()) < pos {
				pos = int(call.End())
			}
		}
		return true
	})
	return pos
}
