package vetstm

import (
	"go/ast"
	"go/types"
)

// TxnEscape flags transaction handles that escape their atomic body: a
// *stm.Txn / *lazystm.Txn / stmapi.Txn / core.Tx stored to a package-level
// variable, sent on a channel, captured by a goroutine spawned inside the
// body, or returned out of the body function. A transaction descriptor is
// only valid while its atomic block runs — the runtime recycles it through
// a pool at commit — so any use after the body returns is undefined
// behaviour (and a re-execution can hand the alias a different attempt's
// descriptor). This is the library-embedding analogue of the paper's rule
// that transactional state must not be observable outside the transaction.
var TxnEscape = &Analyzer{
	Name: "txnescape",
	Doc:  "report transaction handles escaping their atomic body",
	Run:  runTxnEscape,
}

func runTxnEscape(pass *Pass) {
	forEachBody(pass, func(b bodyFunc) {
		tx := b.txn
		ast.Inspect(b.body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					rhs := n.Rhs[0]
					if len(n.Rhs) == len(n.Lhs) {
						rhs = n.Rhs[i]
					}
					if !carriesTxnHandle(pass.Info, rhs, tx) {
						continue
					}
					if v := assignedGlobal(pass.Info, lhs); v != nil {
						pass.Reportf(n.Pos(),
							"transaction handle %s stored to package-level %s: the descriptor is recycled when the atomic block ends, so any later use is undefined",
							tx.Name(), v.Name())
					}
				}
			case *ast.SendStmt:
				if carriesTxnHandle(pass.Info, n.Value, tx) {
					pass.Reportf(n.Pos(),
						"transaction handle %s sent on a channel: the receiver may use it after the atomic block ends (or after an abort), which is undefined",
						tx.Name())
				}
			case *ast.GoStmt:
				// Any use of tx from a spawned goroutine is unsafe:
				// transactions are single-threaded and the goroutine can
				// outlive the atomic block (or race its re-execution).
				captured := false
				if fl, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok && mentionsTxn(pass.Info, fl, tx) {
					captured = true
				}
				for _, arg := range n.Call.Args {
					if carriesTxnHandle(pass.Info, arg, tx) {
						captured = true
					}
				}
				if captured {
					pass.Reportf(n.Pos(),
						"transaction handle %s captured by a goroutine: transactions are single-threaded and the goroutine can outlive the atomic block",
						tx.Name())
				}
			case *ast.ReturnStmt:
				for _, res := range n.Results {
					if carriesTxnHandle(pass.Info, res, tx) {
						pass.Reportf(n.Pos(),
							"transaction handle %s returned from the body: it is only valid while the atomic block runs",
							tx.Name())
					}
				}
			}
			return true
		})
	})
}

// carriesTxnHandle reports whether evaluating e can yield the transaction
// handle tx itself (as opposed to a value read through it): tx directly, a
// composite literal embedding it, &tx, or an append of it. Calls are
// opaque — tx.Read(o, 0) yields a slot value, not the handle — except the
// append builtin, whose result aggregates its arguments.
func carriesTxnHandle(info *types.Info, e ast.Expr, tx *types.Var) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e] == tx
	case *ast.UnaryExpr:
		return carriesTxnHandle(info, e.X, tx)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if carriesTxnHandle(info, el, tx) {
				return true
			}
		}
	case *ast.KeyValueExpr:
		return carriesTxnHandle(info, e.Value, tx)
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" && info.Uses[id] == nil {
			// append resolves to the universe builtin (no Uses object in
			// some configurations; Uses maps it to the builtin otherwise).
			for _, arg := range e.Args {
				if carriesTxnHandle(info, arg, tx) {
					return true
				}
			}
		} else if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, isB := info.Uses[id].(*types.Builtin); isB && b.Name() == "append" {
				for _, arg := range e.Args {
					if carriesTxnHandle(info, arg, tx) {
						return true
					}
				}
			}
		}
	case *ast.TypeAssertExpr:
		return carriesTxnHandle(info, e.X, tx)
	case *ast.StarExpr:
		return carriesTxnHandle(info, e.X, tx)
	}
	return false
}

// mentionsTxn reports whether any identifier under n resolves to tx.
func mentionsTxn(info *types.Info, n ast.Node, tx *types.Var) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == tx {
			found = true
		}
		return !found
	})
	return found
}

// assignedGlobal returns the package-level variable ultimately written by
// lhs (`G = ...`, `G.f = ...`, `G[i] = ...`), or nil.
func assignedGlobal(info *types.Info, lhs ast.Expr) *types.Var {
	for {
		switch e := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			v, ok := info.Uses[e].(*types.Var)
			if !ok {
				if v, ok = info.Defs[e].(*types.Var); !ok {
					return nil
				}
			}
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v
			}
			return nil
		case *ast.SelectorExpr:
			// pkg.G = tx resolves Sel to the var; obj.f = tx walks to obj.
			if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					lhs = e.Sel
					continue
				}
			}
			lhs = e.X
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		default:
			return nil
		}
	}
}
