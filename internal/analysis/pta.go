// Package analysis implements the paper's whole-program analyses
// (Section 5): an Andersen-style, field-sensitive, flow-insensitive
// points-to analysis with the paper's novel two-element context
// ("in transaction" / "not in transaction") and heap specialization
// (abstract objects keyed by allocation site × context); the
// not-accessed-in-transaction (NAIT) barrier-removal client (Figure 12);
// and the comparison thread-local (TL) analysis of Section 5.4.
package analysis

import (
	"repro/internal/lang/ir"
	"repro/internal/lang/types"
	"repro/internal/pta"
)

// Ctx is the analysis context: each method is analyzed in at most two
// contexts, exactly as the paper simulates method duplication.
type Ctx uint8

// The two contexts.
const (
	NonTxn Ctx = 0
	Txn    Ctx = 1
)

// elemSlot is the pseudo-slot used for all elements of an array abstract
// object (the analysis is index-insensitive within an array).
const elemSlot = 0

// object IDs:
//
//	0 .. 2*numSites-1                  (allocation site, ctx) pairs
//	2*numSites .. 2*numSites+numClasses-1   statics holders per class
type objID = int

type methodCtx struct {
	m   *ir.Method
	ctx Ctx
}

type varKey struct {
	m   *ir.Method
	ctx Ctx
	reg int
}

type fieldKey struct {
	obj  objID
	slot int
}

// frontend generates the toy IR's constraints into the shared solver: it
// owns what a node and an object mean (two-context variables, (object,
// slot) field nodes, allocation site × context objects), discovers methods
// as calls reach them, and resolves virtual calls per receiver object.
type frontend struct {
	prog     *ir.Program
	g        *pta.Graph
	numSites int
	numObjs  int

	varNodes   map[varKey]pta.Node
	fieldNodes map[fieldKey]pta.Node
	retNodes   map[methodCtx]pta.Node

	objClass []*types.Class // class of object-typed abstract objects (nil for arrays)
	objIsArr []bool

	analyzed map[methodCtx]bool
}

func newFrontend(p *ir.Program) *frontend {
	s := &frontend{
		prog:       p,
		numSites:   p.NumAllocSites,
		varNodes:   make(map[varKey]pta.Node),
		fieldNodes: make(map[fieldKey]pta.Node),
		retNodes:   make(map[methodCtx]pta.Node),
		analyzed:   make(map[methodCtx]bool),
	}
	s.numObjs = 2*s.numSites + len(p.Types.Classes)
	s.g = pta.New(s.numObjs)
	s.objClass = make([]*types.Class, s.numObjs)
	s.objIsArr = make([]bool, s.numObjs)
	return s
}

func (s *frontend) siteObj(site int, ctx Ctx) objID { return site*2 + int(ctx) }

func (s *frontend) staticsObj(cl *types.Class) objID { return 2*s.numSites + cl.ID }

func (s *frontend) varNode(m *ir.Method, ctx Ctx, reg int) pta.Node {
	k := varKey{m, ctx, reg}
	if n, ok := s.varNodes[k]; ok {
		return n
	}
	n := s.g.NewNode()
	s.varNodes[k] = n
	return n
}

func (s *frontend) fieldNode(o objID, slot int) pta.Node {
	k := fieldKey{o, slot}
	if n, ok := s.fieldNodes[k]; ok {
		return n
	}
	n := s.g.NewNode()
	s.fieldNodes[k] = n
	return n
}

func (s *frontend) retNode(mc methodCtx) pta.Node {
	if n, ok := s.retNodes[mc]; ok {
		return n
	}
	n := s.g.NewNode()
	s.retNodes[mc] = n
	return n
}

// addLoad states dst ⊇ o.slot for every o in pts(base).
func (s *frontend) addLoad(base pta.Node, slot int, dst pta.Node) {
	s.g.Each(base, func(o objID) {
		s.g.Copy(s.fieldNode(o, s.normSlot(o, slot)), dst)
	})
}

// addStore states o.slot ⊇ src for every o in pts(base).
func (s *frontend) addStore(base pta.Node, slot int, src pta.Node) {
	s.g.Each(base, func(o objID) {
		s.g.Copy(src, s.fieldNode(o, s.normSlot(o, slot)))
	})
}

// normSlot maps array element accesses to the shared element pseudo-slot.
func (s *frontend) normSlot(o objID, slot int) int {
	if s.objIsArr[o] {
		return elemSlot
	}
	return slot
}

// reach generates the constraints of a (method, context) pair the first
// time a call or an entry point reaches it.
func (s *frontend) reach(mc methodCtx) {
	if !s.analyzed[mc] {
		s.analyzed[mc] = true
		s.analyzeMethod(mc)
	}
}

// calleeCtx computes the callee's context: calls lexically inside atomic
// always run in transaction; others inherit the caller's context.
func calleeCtx(callerCtx Ctx, in *ir.Instr) Ctx {
	if callerCtx == Txn || in.Atomic {
		return Txn
	}
	return NonTxn
}

func (s *frontend) bindCall(caller methodCtx, in *ir.Instr, callee *ir.Method, ctx Ctx) {
	cmc := methodCtx{callee, ctx}
	s.reach(cmc)
	for i, a := range in.Args {
		if i >= callee.NumParams {
			break
		}
		if callee.RegKinds[i] == ir.RRef {
			s.g.Copy(s.varNode(caller.m, caller.ctx, a), s.varNode(callee, ctx, i))
		}
	}
	if in.Dst >= 0 && in.Op != ir.Spawn {
		if k := caller.m.RegKinds[in.Dst]; k == ir.RRef {
			s.g.Copy(s.retNode(cmc), s.varNode(caller.m, caller.ctx, in.Dst))
		}
	}
}

// virtualCall binds the call (or spawn) in to the target each receiver
// object's class selects; ctx is the callee context.
func (s *frontend) virtualCall(caller methodCtx, in *ir.Instr, ctx Ctx) {
	s.g.Each(s.varNode(caller.m, caller.ctx, in.Args[0]), func(o objID) {
		cl := s.objClass[o]
		if cl == nil || in.VIndex >= len(cl.VTable) {
			return // array or incompatible object flowing in (type-confused set)
		}
		s.bindCall(caller, in, s.prog.MethodOf(cl.VTable[in.VIndex]), ctx)
	})
}

// analyzeMethod generates constraints for one (method, context) pair.
func (s *frontend) analyzeMethod(mc methodCtx) {
	m, ctx := mc.m, mc.ctx
	for _, b := range m.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.NewObj:
				o := s.siteObj(in.AllocSite, effCtx(ctx, in))
				s.objClass[o] = in.Class
				s.g.Add(s.varNode(m, ctx, in.Dst), o)
			case ir.NewArray:
				o := s.siteObj(in.AllocSite, effCtx(ctx, in))
				s.objIsArr[o] = true
				s.g.Add(s.varNode(m, ctx, in.Dst), o)
			case ir.Mov:
				if m.RegKinds[in.Dst] == ir.RRef {
					s.g.Copy(s.varNode(m, ctx, in.A), s.varNode(m, ctx, in.Dst))
				}
			case ir.GetField:
				if in.IsRef {
					s.addLoad(s.varNode(m, ctx, in.A), in.Slot, s.varNode(m, ctx, in.Dst))
				}
			case ir.SetField:
				if in.IsRef {
					s.addStore(s.varNode(m, ctx, in.A), in.Slot, s.varNode(m, ctx, in.B))
				}
			case ir.GetElem:
				if in.IsRef {
					s.addLoad(s.varNode(m, ctx, in.A), elemSlot, s.varNode(m, ctx, in.Dst))
				}
			case ir.SetElem:
				if in.IsRef {
					s.addStore(s.varNode(m, ctx, in.A), elemSlot, s.varNode(m, ctx, in.C))
				}
			case ir.GetStatic:
				if in.IsRef {
					s.g.Copy(s.fieldNode(s.staticsObj(in.Class), in.Slot), s.varNode(m, ctx, in.Dst))
				}
			case ir.SetStatic:
				if in.IsRef {
					s.g.Copy(s.varNode(m, ctx, in.B), s.fieldNode(s.staticsObj(in.Class), in.Slot))
				}
			case ir.CallStatic:
				s.bindCall(mc, in, s.prog.MethodOf(in.Callee), calleeCtx(ctx, in))
			case ir.CallVirtual:
				s.virtualCall(mc, in, calleeCtx(ctx, in))
			case ir.Spawn:
				// The spawned body runs outside any transaction.
				if in.Callee != nil && in.VIndex < 0 {
					s.bindCall(mc, in, s.prog.MethodOf(in.Callee), NonTxn)
				} else {
					s.virtualCall(mc, in, NonTxn)
				}
			case ir.Ret:
				if in.A >= 0 && m.RegKinds[in.A] == ir.RRef {
					s.g.Copy(s.varNode(m, ctx, in.A), s.retNode(mc))
				}
			}
		}
	}
}

// effCtx is the effective transactional context of one instruction.
func effCtx(ctx Ctx, in *ir.Instr) Ctx {
	if ctx == Txn || in.Atomic {
		return Txn
	}
	return NonTxn
}

// Solve runs the points-to analysis from the program's entry points (static
// initializers and main, both outside transactions).
func Solve(p *ir.Program) *PTA {
	s := newFrontend(p)
	for _, init := range p.Inits {
		s.reach(methodCtx{init, NonTxn})
	}
	s.reach(methodCtx{p.Main, NonTxn})
	s.g.Solve()
	return &PTA{s: s}
}

// PTA holds points-to results.
type PTA struct {
	s *frontend
}

// Reachable reports whether m is reachable in the given context.
func (p *PTA) Reachable(m *ir.Method, ctx Ctx) bool {
	return p.s.analyzed[methodCtx{m, ctx}]
}

// PointsTo returns the abstract objects a register may reference in a
// context (nil if the variable was never constrained).
func (p *PTA) PointsTo(m *ir.Method, ctx Ctx, reg int) []int {
	n, ok := p.s.varNodes[varKey{m, ctx, reg}]
	if !ok {
		return nil
	}
	var out []int
	p.s.g.PointsTo(n).ForEach(func(o objID) { out = append(out, o) })
	return out
}
