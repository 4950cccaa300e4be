package vetstm

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Privatization flags the two halves of the paper's §3.3 ordering hazard
// in client code:
//
//   - Unsafe publication: storing a managed reference through the raw,
//     unbarriered Object.StoreSlot. The barriered write path (tx.WriteRef,
//     Barriers.WriteRef) runs the Figure 11 publication walk so a
//     still-private referent loses its all-ones record before it becomes
//     reachable; a naked ref store skips that walk, and every later access
//     to the referent keeps taking the private fast path with no
//     synchronization at all. With an elision manifest loaded (stmvet
//     elide), NAIT/TL objects are born private, so this idiom silently
//     breaks exactly the objects the analysis optimized.
//
//   - Privatize-then-raw-read: a reference fetched transactionally (the
//     privatizing transaction of Figure 1) whose object is then read with
//     raw LoadSlot/StoreSlot after the atomic block. Commit is not
//     write-back: under lazy versioning a committed transaction's values
//     can still be in flight, so the raw read sees a torn state — the
//     paper's motivating anomaly. Post-privatization access must use the
//     ordering read barrier (Barriers.ReadOrdering) or the System
//     accessors.
var Privatization = &Analyzer{
	Name: "privatization",
	Doc:  "report unsafe privatization/publication idioms (Figure 1, §3.3)",
	Run:  runPrivatization,
}

// refReadNames are Txn methods whose result privatizes a reference when it
// escapes the atomic block.
var refReadNames = map[string]bool{"Read": true, "ReadRef": true}

func runPrivatization(pass *Pass) {
	checkUnsafePublication(pass)
	checkPrivatizeThenRawRead(pass)
}

func isManagedRef(t types.Type) bool {
	return t != nil && namedIn(t, PkgObjModel, "Ref")
}

// mentionsRef reports whether any subexpression of e carries a managed
// reference (a Ref-typed value, e.g. item.Ref() or a Ref variable inside a
// uint64 conversion).
func mentionsRef(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if x, ok := n.(ast.Expr); ok && isManagedRef(info.TypeOf(x)) {
			found = true
			return false
		}
		return true
	})
	return found
}

func checkUnsafePublication(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				return true
			}
			se, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || se.Sel.Name != "StoreSlot" {
				return true
			}
			fn, ok := pass.Info.Uses[se.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || !PathHasTail(fn.Pkg().Path(), PkgObjModel) {
				return true
			}
			if !mentionsRef(pass.Info, call.Args[1]) {
				return true
			}
			pass.Reportf(call.Pos(),
				"unbarriered publication: raw StoreSlot of a managed reference skips the publication walk, so a still-private referent keeps its private record and later accesses run unsynchronized — publish through tx.WriteRef or Barriers.WriteRef")
			return true
		})
	}
}

// checkPrivatizeThenRawRead finds variables assigned from tx.Read/ReadRef
// inside a transactional body but declared outside it (the privatized
// handle escaping its atomic block), follows them through one heap.Get
// step, and reports raw slot accesses on them after the block.
func checkPrivatizeThenRawRead(pass *Pass) {
	// The end position of the privatizing body for each escaped handle.
	priv := make(map[*types.Var]token.Pos)
	forEachBody(pass, func(b bodyFunc) {
		ast.Inspect(b.body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, rhs := range as.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				txv, name, ok := txnMethodCall(pass.Info, call)
				if !ok || txv != b.txn || !refReadNames[name] {
					continue
				}
				if i >= len(as.Lhs) {
					continue
				}
				v := identVar(pass.Info, as.Lhs[i])
				if v == nil {
					continue
				}
				// Captured from outside the body: the handle outlives the
				// transaction that privatized it.
				if v.Pos() < b.node.Pos() || v.Pos() > b.node.End() {
					priv[v] = b.node.End()
				}
			}
			return true
		})
	})
	if len(priv) == 0 {
		return
	}

	privAfter := func(e ast.Expr, at token.Pos) (token.Pos, bool) {
		var end token.Pos
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			v, _ := pass.Info.Uses[id].(*types.Var)
			if v == nil {
				return true
			}
			if e, ok := priv[v]; ok && at > e {
				end, found = e, true
			}
			return true
		})
		return end, found
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				// o := h.Get(ref): the dereferenced object is privatized too.
				for i, rhs := range n.Rhs {
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok {
						continue
					}
					se, ok := call.Fun.(*ast.SelectorExpr)
					if !ok || (se.Sel.Name != "Get" && se.Sel.Name != "TryGet") || len(call.Args) == 0 {
						continue
					}
					fn, ok := pass.Info.Uses[se.Sel].(*types.Func)
					if !ok || fn.Pkg() == nil || !PathHasTail(fn.Pkg().Path(), PkgObjModel) {
						continue
					}
					end, ok := privAfter(call.Args[0], call.Pos())
					if !ok || i >= len(n.Lhs) {
						continue
					}
					if v := identVar(pass.Info, n.Lhs[i]); v != nil {
						priv[v] = end
					} else if id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok {
						if v, ok := pass.Info.Defs[id].(*types.Var); ok {
							priv[v] = end
						}
					}
				}
			case *ast.CallExpr:
				se, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || !nakedMethodNames[se.Sel.Name] {
					return true
				}
				fn, ok := pass.Info.Uses[se.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || !PathHasTail(fn.Pkg().Path(), PkgObjModel) {
					return true
				}
				v := identVar(pass.Info, se.X)
				if v == nil {
					return true
				}
				if end, ok := priv[v]; ok && n.Pos() > end {
					pass.Reportf(n.Pos(),
						"%s on %s, which was privatized by the atomic block at %s: commit is not write-back — a committed transaction's values may still be in flight (Figure 1); read it with Barriers.ReadOrdering or the System accessors",
						se.Sel.Name, v.Name(), pass.Fset.Position(end))
				}
			}
			return true
		})
	}
}
