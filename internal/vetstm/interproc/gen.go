package interproc

// Constraint generation: one pass over every function body, emitting
// points-to constraints into the solver and recording access expressions,
// call edges, and thread-sharing roots along the way. Go-level structure
// is modeled coarsely (containers collapse into their variable's node,
// pointers alias their pointees, struct fields merge by name+type) — all
// in the conservative direction for the two clients.

import (
	"go/ast"
	"go/types"

	"repro/internal/pta"
)

type genCtx struct {
	a    *analyzer
	fn   *funcInfo
	info *types.Info
}

func (a *analyzer) generate(fi *funcInfo) {
	g := &genCtx{a: a, fn: fi, info: fi.pkg.Info}
	g.stmt(fi.body)
	// Named results flow to the return nodes whether or not a return
	// statement names them (naked returns).
	if fi.ftype.Results != nil {
		i := 0
		for _, field := range fi.ftype.Results.List {
			if len(field.Names) == 0 {
				i++
				continue
			}
			for _, name := range field.Names {
				if i < len(fi.retNodes) {
					g.copyTo(g.nodeForObj(g.info.Defs[name]), fi.retNodes[i])
				}
				i++
			}
		}
	}
}

func (g *genCtx) copyTo(src, dst pta.Node) {
	if src >= 0 && dst >= 0 {
		g.a.sol.Copy(src, dst)
	}
}

func (g *genCtx) markShared(n pta.Node) {
	if n >= 0 {
		g.a.sharedRoots = append(g.a.sharedRoots, n)
	}
}

func (g *genCtx) access(node pta.Node, store bool, kind accessKind) {
	if node >= 0 {
		g.a.accesses = append(g.a.accesses, accessRec{fn: g.fn, node: node, store: store, kind: kind})
	}
}

// ---- node resolution ----

// nodeForObj maps a variable to its points-to node. Package-level
// variables, struct fields, and channels are shared storage (see the
// package comment); their nodes are registered as sharing roots when
// created.
func (g *genCtx) nodeForObj(obj types.Object) pta.Node {
	v, ok := obj.(*types.Var)
	if !ok || v == nil {
		return -1
	}
	a := g.a
	if v.IsField() {
		key := "f:"
		if v.Pkg() != nil {
			key += v.Pkg().Path()
		}
		key += "." + v.Name() + ":" + types.TypeString(v.Type(), nil)
		if n, ok := a.nodeByKey[key]; ok {
			return n
		}
		n := a.sol.NewNode()
		a.nodeByKey[key] = n
		g.markShared(n)
		return n
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		key := "g:" + v.Pkg().Path() + "." + v.Name()
		if n, ok := a.nodeByKey[key]; ok {
			return n
		}
		n := a.sol.NewNode()
		a.nodeByKey[key] = n
		g.markShared(n)
		return n
	}
	if n, ok := a.nodeByObj[v]; ok {
		return n
	}
	n := a.sol.NewNode()
	a.nodeByObj[v] = n
	return n
}

// chanNode returns the single points-to plane shared by all channels of
// one element type.
func (g *genCtx) chanNode(chanType types.Type) pta.Node {
	if chanType == nil {
		return -1
	}
	ch, ok := chanType.Underlying().(*types.Chan)
	if !ok {
		return -1
	}
	key := "c:" + types.TypeString(ch.Elem(), nil)
	if n, ok := g.a.nodeByKey[key]; ok {
		return n
	}
	n := g.a.sol.NewNode()
	g.a.nodeByKey[key] = n
	g.markShared(n)
	return n
}

// ---- statements ----

func (g *genCtx) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			g.stmt(st)
		}
	case *ast.ExprStmt:
		g.eval(s.X)
	case *ast.AssignStmt:
		g.assign(s.Lhs, s.Rhs)
	case *ast.GoStmt:
		g.goCall(s.Call)
	case *ast.DeferStmt:
		g.callResults(s.Call)
	case *ast.ReturnStmt:
		g.ret(s)
	case *ast.IfStmt:
		g.stmt(s.Init)
		g.eval(s.Cond)
		g.stmt(s.Body)
		g.stmt(s.Else)
	case *ast.ForStmt:
		g.stmt(s.Init)
		if s.Cond != nil {
			g.eval(s.Cond)
		}
		g.stmt(s.Post)
		g.stmt(s.Body)
	case *ast.RangeStmt:
		g.rangeStmt(s)
	case *ast.SwitchStmt:
		g.stmt(s.Init)
		if s.Tag != nil {
			g.eval(s.Tag)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				g.eval(e)
			}
			for _, st := range cc.Body {
				g.stmt(st)
			}
		}
	case *ast.TypeSwitchStmt:
		g.typeSwitch(s)
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			g.stmt(cc.Comm)
			for _, st := range cc.Body {
				g.stmt(st)
			}
		}
	case *ast.SendStmt:
		plane := g.chanNode(g.typeOf(s.Chan))
		g.eval(s.Chan)
		g.copyTo(g.eval(s.Value), plane)
	case *ast.IncDecStmt:
		g.eval(s.X)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			var lhs []ast.Expr
			for _, name := range vs.Names {
				lhs = append(lhs, name)
			}
			if len(vs.Values) > 0 {
				g.assign(lhs, vs.Values)
			}
		}
	case *ast.LabeledStmt:
		g.stmt(s.Stmt)
	}
}

func (g *genCtx) typeSwitch(s *ast.TypeSwitchStmt) {
	g.stmt(s.Init)
	// The scrutinee: `switch v := x.(type)` or `switch x.(type)`.
	var xNode pta.Node = -1
	switch as := s.Assign.(type) {
	case *ast.AssignStmt:
		if len(as.Rhs) == 1 {
			if ta, ok := ast.Unparen(as.Rhs[0]).(*ast.TypeAssertExpr); ok {
				xNode = g.eval(ta.X)
			}
		}
	case *ast.ExprStmt:
		if ta, ok := ast.Unparen(as.X).(*ast.TypeAssertExpr); ok {
			xNode = g.eval(ta.X)
		}
	}
	for _, c := range s.Body.List {
		cc := c.(*ast.CaseClause)
		// Each clause's implicit variable aliases the scrutinee.
		if g.info.Implicits != nil {
			if obj, ok := g.info.Implicits[cc]; ok {
				g.copyTo(xNode, g.nodeForObj(obj))
			}
		}
		for _, st := range cc.Body {
			g.stmt(st)
		}
	}
}

func (g *genCtx) rangeStmt(s *ast.RangeStmt) {
	xn := g.eval(s.X)
	t := g.typeOf(s.X)
	isChan := false
	if t != nil {
		_, isChan = t.Underlying().(*types.Chan)
	}
	if isChan {
		if s.Key != nil {
			g.copyTo(g.chanNode(t), g.lval(s.Key))
		}
	} else {
		// Containers collapse into their variable's node: both the keys
		// (maps) and the values alias the container.
		if s.Key != nil {
			g.copyTo(xn, g.lval(s.Key))
		}
		if s.Value != nil {
			g.copyTo(xn, g.lval(s.Value))
		}
	}
	g.stmt(s.Body)
}

func (g *genCtx) ret(s *ast.ReturnStmt) {
	if len(s.Results) == 0 {
		return
	}
	if len(s.Results) == 1 && len(g.fn.retNodes) > 1 {
		// return f() forwarding a multi-value call
		if call, ok := ast.Unparen(s.Results[0]).(*ast.CallExpr); ok {
			res := g.callResults(call)
			for i, rn := range res {
				if i < len(g.fn.retNodes) {
					g.copyTo(rn, g.fn.retNodes[i])
				}
			}
			return
		}
	}
	for i, e := range s.Results {
		n := g.eval(e)
		if i < len(g.fn.retNodes) {
			g.copyTo(n, g.fn.retNodes[i])
		}
	}
}

func (g *genCtx) assign(lhs, rhs []ast.Expr) {
	if len(rhs) == 1 && len(lhs) > 1 {
		switch r := ast.Unparen(rhs[0]).(type) {
		case *ast.CallExpr:
			res := g.callResults(r)
			for i, l := range lhs {
				var rn pta.Node = -1
				if i < len(res) {
					rn = res[i]
				}
				g.copyTo(rn, g.lval(l))
			}
			return
		case *ast.TypeAssertExpr:
			g.copyTo(g.eval(r.X), g.lval(lhs[0]))
			return
		case *ast.IndexExpr:
			g.copyTo(g.eval(r.X), g.lval(lhs[0]))
			return
		case *ast.UnaryExpr:
			if r.Op.String() == "<-" {
				g.copyTo(g.chanNode(g.typeOf(r.X)), g.lval(lhs[0]))
				return
			}
		}
		n := g.eval(rhs[0])
		for _, l := range lhs {
			g.copyTo(n, g.lval(l))
		}
		return
	}
	for i, r := range rhs {
		n := g.eval(r)
		if i < len(lhs) {
			g.copyTo(n, g.lval(lhs[i]))
		}
	}
}

// lval resolves an assignment target to its node. Container element
// stores collapse into the container's node.
func (g *genCtx) lval(e ast.Expr) pta.Node {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return -1
		}
		if obj := g.info.Defs[e]; obj != nil {
			return g.nodeForObj(obj)
		}
		return g.nodeForObj(g.info.Uses[e])
	case *ast.SelectorExpr:
		g.eval(e.X)
		return g.nodeForObj(g.info.Uses[e.Sel])
	case *ast.IndexExpr:
		g.eval(e.Index)
		return g.eval(e.X)
	case *ast.StarExpr:
		return g.eval(e.X)
	}
	return g.eval(e)
}

// ---- expressions ----

func (g *genCtx) typeOf(e ast.Expr) types.Type {
	if tv, ok := g.info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// eval generates constraints for an expression and returns its node, or
// -1 when the value cannot carry managed references.
func (g *genCtx) eval(e ast.Expr) pta.Node {
	switch e := e.(type) {
	case nil:
		return -1
	case *ast.Ident:
		switch obj := g.info.Uses[e].(type) {
		case *types.Var:
			return g.nodeForObj(obj)
		case *types.Func:
			g.markAddrTaken(obj)
		}
		return -1
	case *ast.ParenExpr:
		return g.eval(e.X)
	case *ast.SelectorExpr:
		switch obj := g.info.Uses[e.Sel].(type) {
		case *types.Var:
			g.eval(e.X)
			return g.nodeForObj(obj)
		case *types.Func:
			g.eval(e.X)
			g.markAddrTaken(obj)
		default:
			g.eval(e.X)
		}
		return -1
	case *ast.IndexExpr:
		g.eval(e.Index)
		return g.eval(e.X)
	case *ast.SliceExpr:
		return g.eval(e.X)
	case *ast.StarExpr:
		return g.eval(e.X)
	case *ast.UnaryExpr:
		if e.Op.String() == "<-" {
			g.eval(e.X)
			return g.chanNode(g.typeOf(e.X))
		}
		return g.eval(e.X) // &x aliases x
	case *ast.CallExpr:
		res := g.callResults(e)
		if len(res) > 0 {
			return res[0]
		}
		return -1
	case *ast.CompositeLit:
		t := g.a.sol.NewNode()
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if id, ok := ast.Unparen(kv.Key).(*ast.Ident); ok {
					if fv, ok := g.info.Uses[id].(*types.Var); ok && fv.IsField() {
						g.copyTo(g.eval(kv.Value), g.nodeForObj(fv))
						continue
					}
				}
				g.copyTo(g.eval(kv.Key), t)
				g.copyTo(g.eval(kv.Value), t)
				continue
			}
			g.copyTo(g.eval(elt), t)
		}
		return t
	case *ast.TypeAssertExpr:
		return g.eval(e.X)
	case *ast.BinaryExpr:
		a, b := g.eval(e.X), g.eval(e.Y)
		if a < 0 && b < 0 {
			return -1
		}
		t := g.a.sol.NewNode()
		g.copyTo(a, t)
		g.copyTo(b, t)
		return t
	case *ast.FuncLit:
		// A literal in value position escapes: it may be called from
		// anywhere, so it joins the dynamic-call universe.
		if fi := g.a.byNode[e]; fi != nil {
			fi.addrTaken = true
		}
		return -1
	}
	return -1
}

func (g *genCtx) markAddrTaken(fn *types.Func) {
	if fi := g.a.funcs[fn.FullName()]; fi != nil {
		fi.addrTaken = true
	}
}
