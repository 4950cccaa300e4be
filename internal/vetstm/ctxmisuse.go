package vetstm

import (
	"go/ast"
	"go/types"
)

// CtxMisuse flags misleading uses of the context-aware atomic entry
// points. AtomicCtx exists so a deadline or cancellation can doom a
// transaction (the PR-3 robustness surface); both failure modes surface
// solely through the returned error:
//
//   - Discarding AtomicCtx's result (a bare expression statement) means a
//     cancelled or expired transaction is indistinguishable from a
//     committed one — the caller proceeds as if the effects happened.
//   - Passing context.Background() or context.TODO() directly means the
//     context can never cancel or expire, so AtomicCtx degenerates to
//     Atomic while implying deadline protection the call does not have;
//     any configured deadline policy is dead code on this call.
var CtxMisuse = &Analyzer{
	Name: "ctxmisuse",
	Doc:  "report ignored AtomicCtx errors and never-cancelled contexts",
	Run:  runCtxMisuse,
}

func runCtxMisuse(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			if call, ok := stmt.X.(*ast.CallExpr); ok {
				if name, ok := atomicCall(pass.Info, call); ok && name == "AtomicCtx" {
					pass.Reportf(call.Pos(),
						"AtomicCtx result discarded: cancellation and deadline expiry are only reported through the returned error, so this caller cannot tell an aborted transaction from a committed one")
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			name, ok := atomicCall(pass.Info, call)
			if !ok || name != "AtomicCtx" {
				return true
			}
			if ctxFn := neverCancelledCtx(pass.Info, call.Args[0]); ctxFn != "" {
				pass.Reportf(call.Args[0].Pos(),
					"AtomicCtx with context.%s(): this context can never cancel or expire, so the deadline machinery is dead code on this call — use Atomic, or derive a context with a deadline",
					ctxFn)
			}
			return true
		})
	}
}

// neverCancelledCtx reports whether e is a direct context.Background() or
// context.TODO() call, returning the function name.
func neverCancelledCtx(info *types.Info, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	se, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[se.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return fn.Name()
	}
	return ""
}
