package interproc

// Call handling: runtime intrinsics (allocation, transactional accessors,
// strong barriers), Atomic* entry points, direct and CHA-resolved calls,
// go statements, and the post-generation binding of func-value calls.

import (
	"go/ast"
	"go/types"

	"repro/internal/pta"
	"repro/internal/vetstm"
)

// callResults generates constraints for a call and returns one node per
// result value (nil when no result can carry managed references).
func (g *genCtx) callResults(call *ast.CallExpr) []pta.Node {
	// Conversion: T(x) passes the value through.
	if tv, ok := g.info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return []pta.Node{g.eval(call.Args[0])}
		}
		return nil
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := g.info.Uses[id].(*types.Builtin); ok {
			return g.builtinCall(b.Name(), call)
		}
	}
	fn := calleeFunc(g.info, call)
	if fn != nil {
		if vetstm.IsAtomicEntry(fn) {
			return g.atomicCall(call)
		}
		if res, ok := g.intrinsic(fn, call); ok {
			return res
		}
		if target := g.a.funcs[fn.FullName()]; target != nil {
			return g.bindDirect(call, target, false)
		}
		if recv := fn.Signature().Recv(); recv != nil {
			if _, ok := recv.Type().Underlying().(*types.Interface); ok {
				return g.chaCall(call, fn, false)
			}
		}
		return g.externalCall(call, fn.Signature().Results().Len())
	}
	// Direct call of a function literal: bind precisely.
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		if target := g.a.byNode[lit]; target != nil {
			g.bindArgNodes(g.evalArgs(call), target)
			g.a.calls = append(g.a.calls, callEdge{caller: g.fn, callee: target})
			return target.retNodes
		}
	}
	return g.dynamicCall(call, false, false)
}

func (g *genCtx) evalArgs(call *ast.CallExpr) []pta.Node {
	nodes := make([]pta.Node, len(call.Args))
	for i, arg := range call.Args {
		nodes[i] = g.eval(arg)
	}
	return nodes
}

// bindArgNodes copies argument nodes into the target's parameter nodes,
// collapsing variadic extras into the last parameter.
func (g *genCtx) bindArgNodes(argNodes []pta.Node, target *funcInfo) {
	for i, n := range argNodes {
		j := i
		if j >= len(target.params) {
			if len(target.params) == 0 {
				break
			}
			j = len(target.params) - 1
		}
		g.copyTo(n, g.nodeForObj(target.params[j]))
	}
}

func (g *genCtx) bindDirect(call *ast.CallExpr, target *funcInfo, spawn bool) []pta.Node {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		rn := g.eval(sel.X)
		if spawn {
			g.markShared(rn)
		}
		g.copyTo(rn, g.nodeForObj(target.recv))
	}
	args := g.evalArgs(call)
	if spawn {
		for _, n := range args {
			g.markShared(n)
		}
	}
	g.bindArgNodes(args, target)
	g.a.calls = append(g.a.calls, callEdge{caller: g.fn, callee: target, spawn: spawn})
	return target.retNodes
}

// chaCall resolves an interface method call against every method in the
// program with the same name and a compatible parameter count.
func (g *genCtx) chaCall(call *ast.CallExpr, fn *types.Func, spawn bool) []pta.Node {
	var recvNode pta.Node = -1
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		recvNode = g.eval(sel.X)
		if spawn {
			g.markShared(recvNode)
		}
	}
	args := g.evalArgs(call)
	if spawn {
		for _, n := range args {
			g.markShared(n)
		}
	}
	resNodes := make([]pta.Node, fn.Signature().Results().Len())
	for i := range resNodes {
		resNodes[i] = g.a.sol.NewNode()
	}
	for _, target := range g.a.funcList {
		if target.decl == nil || target.decl.Recv == nil {
			continue
		}
		if target.decl.Name.Name != fn.Name() || !arityMatches(target, len(args)) {
			continue
		}
		g.copyTo(recvNode, g.nodeForObj(target.recv))
		g.bindArgNodes(args, target)
		for i := range resNodes {
			if i < len(target.retNodes) {
				g.copyTo(target.retNodes[i], resNodes[i])
			}
		}
		g.a.calls = append(g.a.calls, callEdge{caller: g.fn, callee: target, spawn: spawn})
	}
	return resNodes
}

// externalCall models a call into code outside the analyzed set: every
// argument (and the receiver) may escape to another goroutine, and the
// results may alias any argument.
func (g *genCtx) externalCall(call *ast.CallExpr, nres int) []pta.Node {
	t := g.a.sol.NewNode()
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		rn := g.eval(sel.X)
		g.markShared(rn)
		g.copyTo(rn, t)
	}
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			if fi := g.a.byNode[lit]; fi != nil {
				fi.addrTaken = true
			}
			g.markCapturesShared(lit)
			continue
		}
		n := g.eval(arg)
		g.markShared(n)
		g.copyTo(n, t)
	}
	if nres == 0 {
		return nil
	}
	res := make([]pta.Node, nres)
	for i := range res {
		res[i] = t
	}
	return res
}

// dynamicCall records a call through a func value for post-generation
// CHA binding against address-taken functions.
func (g *genCtx) dynamicCall(call *ast.CallExpr, spawn, txn bool) []pta.Node {
	g.eval(call.Fun)
	args := g.evalArgs(call)
	if spawn {
		for _, n := range args {
			g.markShared(n)
		}
	}
	nres := 0
	if t := g.typeOf(call.Fun); t != nil {
		if sig, ok := t.Underlying().(*types.Signature); ok {
			nres = sig.Results().Len()
		}
	}
	resNodes := make([]pta.Node, nres)
	for i := range resNodes {
		resNodes[i] = g.a.sol.NewNode()
	}
	g.a.dynCalls = append(g.a.dynCalls, &dynCall{
		caller:   g.fn,
		recvNode: -1,
		argNodes: args,
		resNodes: resNodes,
		nargs:    len(call.Args),
		spawn:    spawn,
		txn:      txn,
	})
	return resNodes
}

// atomicCall handles the Atomic* entry points: every func-typed argument
// runs transactionally.
func (g *genCtx) atomicCall(call *ast.CallExpr) []pta.Node {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		g.eval(sel.X)
	}
	for _, arg := range call.Args {
		arg = ast.Unparen(arg)
		if lit, ok := arg.(*ast.FuncLit); ok {
			if target := g.a.byNode[lit]; target != nil {
				g.a.calls = append(g.a.calls, callEdge{caller: g.fn, callee: target, txn: true})
			}
			continue
		}
		if fn := funcValue(g.info, arg); fn != nil {
			if target := g.a.funcs[fn.FullName()]; target != nil {
				g.a.calls = append(g.a.calls, callEdge{caller: g.fn, callee: target, txn: true})
				continue
			}
		}
		n := g.eval(arg)
		if t := g.typeOf(arg); t != nil {
			if sig, ok := t.Underlying().(*types.Signature); ok {
				// A body held in a func value: bind dynamically, transactionally.
				g.a.dynCalls = append(g.a.dynCalls, &dynCall{
					caller: g.fn, recvNode: -1, nargs: sig.Params().Len(), txn: true,
				})
				continue
			}
		}
		_ = n
	}
	return nil
}

// intrinsic models the runtime API calls the analysis understands natively
// instead of (or in addition to) analyzing their bodies: allocation sites,
// transactional accessors, strong barriers, and naked slot access. These
// take precedence over direct binding so that an access is attributed to
// the call site's context, mirroring how the runtime attributes allocation
// sites via runtime.Callers.
func (g *genCtx) intrinsic(fn *types.Func, call *ast.CallExpr) ([]pta.Node, bool) {
	if fn.Pkg() == nil {
		return nil, false
	}
	path := fn.Pkg().Path()
	recv := fn.Signature().Recv()
	name := fn.Name()
	evalRecv := func() pta.Node {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return g.eval(sel.X)
		}
		return -1
	}
	argN := func(i int) pta.Node {
		if i < len(call.Args) {
			return g.eval(call.Args[i])
		}
		return -1
	}
	load := func(base pta.Node, kind accessKind) []pta.Node {
		g.access(base, false, kind)
		t := g.a.sol.NewNode()
		if base >= 0 {
			g.a.addLoad(base, t)
		}
		return []pta.Node{t}
	}
	store := func(base, v pta.Node, kind accessKind) {
		g.access(base, true, kind)
		if base >= 0 && v >= 0 {
			g.a.addStore(base, v)
		}
	}

	if vetstm.PathHasTail(path, vetstm.PkgObjModel) && recv != nil {
		switch {
		case namedIs(recv.Type(), "Heap"):
			evalRecv()
			switch name {
			case "New", "NewArray", "NewPublic":
				for _, arg := range call.Args {
					g.eval(arg)
				}
				t := g.a.sol.NewNode()
				if site, ok := g.a.siteOf[call]; ok {
					g.a.sol.Add(t, site)
				}
				return []pta.Node{t}, true
			case "Get", "TryGet":
				t := g.a.sol.NewNode()
				g.copyTo(argN(0), t)
				return []pta.Node{t}, true
			}
			for _, arg := range call.Args {
				g.eval(arg)
			}
			return nil, true
		case namedIs(recv.Type(), "Object"):
			base := evalRecv()
			switch name {
			case "Ref":
				return []pta.Node{base}, true
			case "LoadSlot":
				argN(0)
				return load(base, accNaked), true
			case "StoreSlot":
				argN(0)
				store(base, argN(1), accNaked)
				return nil, true
			}
			for _, arg := range call.Args {
				g.eval(arg)
			}
			return nil, true
		}
		return nil, false
	}

	// Transactional accessors: tx.Read/Write and friends, any runtime.
	if recv != nil && vetstm.IsTxnType(recv.Type()) {
		evalRecv()
		switch name {
		case "Read", "ReadRef":
			argN(1)
			return load(argN(0), accTxn), true
		case "Write", "WriteRef":
			base := argN(0)
			argN(1)
			store(base, argN(2), accTxn)
			return nil, true
		}
		return nil, false
	}

	// Strong (non-transactional) barriers.
	if vetstm.PathHasTail(path, vetstm.PkgStrong) && recv != nil && namedIs(recv.Type(), "Barriers") {
		evalRecv()
		switch name {
		case "Read", "ReadRef", "ReadOrdering", "ReadOrderingRef", "AggRead":
			base := argN(0)
			for i := 1; i < len(call.Args); i++ {
				argN(i)
			}
			return load(base, accNT), true
		case "Write", "WriteRef", "AggWrite":
			base := argN(0)
			argN(1)
			v := argN(2)
			if len(call.Args) > 3 {
				argN(3)
			}
			store(base, v, accNT)
			return nil, true
		case "Acquire":
			// Acquisition precedes writes; treat as a write access.
			g.access(argN(0), true, accNT)
			return nil, true
		case "Release":
			argN(0)
			argN(1)
			return nil, true
		}
		return nil, false
	}

	// core.System NT accessors (they delegate to strong.Barriers).
	if vetstm.PathHasTail(path, vetstm.PkgCore) && recv != nil && namedIs(recv.Type(), "System") {
		switch name {
		case "Read", "ReadRef":
			evalRecv()
			argN(1)
			return load(argN(0), accNT), true
		case "Write", "WriteRef":
			evalRecv()
			base := argN(0)
			argN(1)
			store(base, argN(2), accNT)
			return nil, true
		case "Deref":
			evalRecv()
			t := g.a.sol.NewNode()
			g.copyTo(argN(0), t)
			return []pta.Node{t}, true
		}
		return nil, false
	}

	return nil, false
}

func (g *genCtx) builtinCall(name string, call *ast.CallExpr) []pta.Node {
	switch name {
	case "append":
		t := g.a.sol.NewNode()
		for _, arg := range call.Args {
			g.copyTo(g.eval(arg), t)
		}
		return []pta.Node{t}
	case "copy":
		if len(call.Args) == 2 {
			g.copyTo(g.eval(call.Args[1]), g.eval(call.Args[0]))
		}
		return nil
	default:
		for _, arg := range call.Args {
			g.eval(arg)
		}
		return nil
	}
}

// goCall handles go statements: spawn edges reset the transactional
// context, and everything reachable from the spawned goroutine (arguments,
// receiver, closure captures) becomes thread-shared.
func (g *genCtx) goCall(call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	if lit, ok := fun.(*ast.FuncLit); ok {
		g.markCapturesShared(lit)
		if target := g.a.byNode[lit]; target != nil {
			args := g.evalArgs(call)
			for _, n := range args {
				g.markShared(n)
			}
			g.bindArgNodes(args, target)
			g.a.calls = append(g.a.calls, callEdge{caller: g.fn, callee: target, spawn: true})
			return
		}
	}
	if fn := calleeFunc(g.info, call); fn != nil {
		if target := g.a.funcs[fn.FullName()]; target != nil {
			g.bindDirect(call, target, true)
			return
		}
		if recv := fn.Signature().Recv(); recv != nil {
			if _, ok := recv.Type().Underlying().(*types.Interface); ok {
				g.chaCall(call, fn, true)
				return
			}
		}
		g.externalCall(call, 0)
		return
	}
	g.dynamicCall(call, true, false)
}

// markCapturesShared marks every variable a literal captures from an
// enclosing function as thread-shared (globals and fields already are).
func (g *genCtx) markCapturesShared(lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := g.info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			g.markShared(g.nodeForObj(v))
		}
		return true
	})
}

// funcValue resolves an expression to the named function it denotes, if any.
func funcValue(info *types.Info, e ast.Expr) *types.Func {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

func arityMatches(fi *funcInfo, nargs int) bool {
	if len(fi.params) == nargs {
		return true
	}
	return isVariadic(fi) && nargs >= len(fi.params)-1
}

func isVariadic(fi *funcInfo) bool {
	if fi.ftype.Params == nil || len(fi.ftype.Params.List) == 0 {
		return false
	}
	_, ok := fi.ftype.Params.List[len(fi.ftype.Params.List)-1].Type.(*ast.Ellipsis)
	return ok
}

// bindDynamicCalls resolves every func-value call against the
// address-taken functions with a compatible arity (and, for transactional
// bodies, a transaction-handle parameter).
func (a *analyzer) bindDynamicCalls() {
	for _, dc := range a.dynCalls {
		g := &genCtx{a: a, fn: dc.caller, info: dc.caller.pkg.Info}
		for _, fi := range a.funcList {
			if !fi.addrTaken {
				continue
			}
			if dc.txn && !fi.hasTxnArg {
				continue
			}
			if !arityMatches(fi, dc.nargs) {
				continue
			}
			g.copyTo(dc.recvNode, g.nodeForObj(fi.recv))
			for i, an := range dc.argNodes {
				if i < len(fi.params) {
					g.copyTo(an, g.nodeForObj(fi.params[i]))
				}
			}
			for i, rn := range dc.resNodes {
				if i < len(fi.retNodes) {
					g.copyTo(fi.retNodes[i], rn)
				}
			}
			a.calls = append(a.calls, callEdge{caller: dc.caller, callee: fi, spawn: dc.spawn, txn: dc.txn})
		}
	}
}
