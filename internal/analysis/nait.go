package analysis

import (
	"fmt"
	"strings"

	"repro/internal/lang/ir"
	"repro/internal/pta"
)

// Options configures the whole-program run.
type Options struct {
	// Granularity is the STM's version-management granularity in slots.
	// NAIT must treat a transactional write to one slot as a write to its
	// whole span (Section 2.4's requirement on the analysis).
	Granularity int

	// Apply clears Barrier.Need on accesses proven removable (NAIT ∪ TL ∪
	// the Section 5.3 class-initializer exemption). When false, the run
	// only counts (Figure 13 mode).
	Apply bool

	// TxnReadElim additionally marks in-transaction loads whose points-to
	// sets contain no object written in any transaction as TxnReadDirect —
	// the Section 5.2 extension that removes transactional open-for-read
	// barriers. The paper notes this is sound only under weak atomicity;
	// the VM enforces that by honoring the mark only with barriers off.
	TxnReadElim bool
}

// Report carries the Figure 13 static counts and the analysis results.
type Report struct {
	// Barriers in reachable non-transactional code (not lexically atomic).
	TotalReads  int
	TotalWrites int

	// Removal counts per analysis (on the same barrier population).
	NAITReads, NAITWrites         int // removable by NAIT
	TLReads, TLWrites             int // removable by TL
	NAITOnlyReads, NAITOnlyWrites int // NAIT but not TL (Figure 13 "NAIT-TL")
	TLOnlyReads, TLOnlyWrites     int // TL but not NAIT (Figure 13 "TL-NAIT")
	UnionReads, UnionWrites       int // either (Figure 13 "TL+NAIT")

	// InitSelf counts Section 5.3 exempted accesses (a class initializer
	// touching its own statics), which are excluded from the totals above
	// exactly as the paper's counts exclude them.
	InitSelf int

	// TxnReadsTotal/TxnReadsDirect count in-transaction loads and how many
	// the Section 5.2 extension can bypass (populated when TxnReadElim).
	TxnReadsTotal  int
	TxnReadsDirect int

	PTA *PTA
}

// String renders one program's row of Figure 13.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "type  total  NAIT-TL  TL-NAIT  TL+NAIT\n")
	fmt.Fprintf(&b, "read  %5d  %7d  %7d  %7d\n", r.TotalReads, r.NAITOnlyReads, r.TLOnlyReads, r.UnionReads)
	fmt.Fprintf(&b, "write %5d  %7d  %7d  %7d\n", r.TotalWrites, r.NAITOnlyWrites, r.TLOnlyWrites, r.UnionWrites)
	return b.String()
}

// Run executes the whole-program pipeline: points-to, access
// classification, NAIT (Figure 12), TL, and optionally barrier removal.
func Run(p *ir.Program, o Options) *Report {
	if o.Granularity == 0 {
		o.Granularity = 1
	}
	res := Solve(p)
	s := res.s
	r := &Report{PTA: res}

	// Pass 1 (Section 5.2): classify how every abstract object is accessed
	// inside transactions, per slot, widening transactional writes to the
	// version-management span.
	readInTxn := make(map[fieldKey]bool)
	writtenInTxn := make(map[fieldKey]bool)
	g := o.Granularity

	mark := func(o objID, slot int, isStore bool) {
		slot = s.normSlot(o, slot)
		if !isStore {
			readInTxn[fieldKey{o, slot}] = true
			return
		}
		if s.objIsArr[o] {
			writtenInTxn[fieldKey{o, elemSlot}] = true
			return
		}
		base := slot &^ (g - 1)
		for i := 0; i < g; i++ {
			writtenInTxn[fieldKey{o, base + i}] = true
		}
	}

	forEachReachableAccess(p, res, func(mc methodCtx, in *ir.Instr) {
		if effCtx(mc.ctx, in) != Txn {
			return
		}
		s.accessTargets(mc, in, func(o objID, slot int) {
			mark(o, slot, in.Op.IsStore())
		})
	})

	// TL: compute the set of thread-shared abstract objects.
	shared := computeShared(p, res)

	// Pass 2: for each barrier in reachable non-transactional code, decide
	// removability per Figure 12 (NAIT) and per thread-locality (TL).
	initSelf := func(mc methodCtx, in *ir.Instr) bool {
		// Section 5.3: accesses in a class initializer to static fields of
		// the class being initialized need no barrier and are not counted.
		return mc.m.IsInit &&
			(in.Op == ir.GetStatic || in.Op == ir.SetStatic) &&
			in.Class == mc.m.Class
	}

	if o.TxnReadElim {
		forEachReachableAccess(p, res, func(mc methodCtx, in *ir.Instr) {
			if effCtx(mc.ctx, in) != Txn || !in.Op.IsLoad() {
				return
			}
			r.TxnReadsTotal++
			ok := true
			s.accessTargets(mc, in, func(ob objID, slot int) {
				if writtenInTxn[fieldKey{ob, s.normSlot(ob, slot)}] {
					ok = false
				}
			})
			if ok {
				r.TxnReadsDirect++
				if o.Apply {
					in.Barrier.TxnReadDirect = true
				}
			}
		})
	}

	forEachReachableAccess(p, res, func(mc methodCtx, in *ir.Instr) {
		if effCtx(mc.ctx, in) == Txn {
			return
		}
		if initSelf(mc, in) {
			r.InitSelf++
			if o.Apply {
				in.Barrier.Need = false
				in.Barrier.RemovedBy |= ir.ByInitSelf
			}
			return
		}
		isStore := in.Op.IsStore()
		naitOK, tlOK := true, true
		s.accessTargets(mc, in, func(ob objID, slot int) {
			slot = s.normSlot(ob, slot)
			if isStore {
				// A store needs a barrier if the location is read or
				// written in some transaction.
				if readInTxn[fieldKey{ob, slot}] || writtenInTxn[fieldKey{ob, slot}] {
					naitOK = false
				}
			} else {
				// A load needs a barrier if the location is written in some
				// transaction (including granular neighbour writes).
				if writtenInTxn[fieldKey{ob, slot}] {
					naitOK = false
				}
			}
			if shared.Has(ob) {
				tlOK = false
			}
		})
		if isStore {
			r.TotalWrites++
		} else {
			r.TotalReads++
		}
		count := func(c *int, ok bool) {
			if ok {
				*c++
			}
		}
		if isStore {
			count(&r.NAITWrites, naitOK)
			count(&r.TLWrites, tlOK)
			count(&r.NAITOnlyWrites, naitOK && !tlOK)
			count(&r.TLOnlyWrites, tlOK && !naitOK)
			count(&r.UnionWrites, naitOK || tlOK)
		} else {
			count(&r.NAITReads, naitOK)
			count(&r.TLReads, tlOK)
			count(&r.NAITOnlyReads, naitOK && !tlOK)
			count(&r.TLOnlyReads, tlOK && !naitOK)
			count(&r.UnionReads, naitOK || tlOK)
		}
		if o.Apply && (naitOK || tlOK) {
			in.Barrier.Need = false
			if naitOK {
				in.Barrier.RemovedBy |= ir.ByNAIT
			}
			if tlOK {
				in.Barrier.RemovedBy |= ir.ByTL
			}
		}
	})
	return r
}

// forEachReachableAccess visits every memory-access instruction of every
// reachable (method, context) pair.
func forEachReachableAccess(p *ir.Program, res *PTA, f func(methodCtx, *ir.Instr)) {
	for _, m := range p.Methods {
		for _, ctx := range []Ctx{NonTxn, Txn} {
			if !res.Reachable(m, ctx) {
				continue
			}
			mc := methodCtx{m, ctx}
			for _, b := range m.Blocks {
				for i := range b.Instrs {
					in := &b.Instrs[i]
					if in.Op.IsMemAccess() {
						f(mc, in)
					}
				}
			}
		}
	}
}

// accessTargets enumerates the (abstract object, slot) pairs an access may
// touch in a context.
func (s *frontend) accessTargets(mc methodCtx, in *ir.Instr, f func(objID, int)) {
	switch in.Op {
	case ir.GetStatic, ir.SetStatic:
		f(s.staticsObj(in.Class), in.Slot)
	case ir.GetField, ir.SetField:
		if n, ok := s.varNodes[varKey{mc.m, mc.ctx, in.A}]; ok {
			s.g.PointsTo(n).ForEach(func(o objID) { f(o, in.Slot) })
		}
	case ir.GetElem, ir.SetElem:
		if n, ok := s.varNodes[varKey{mc.m, mc.ctx, in.A}]; ok {
			s.g.PointsTo(n).ForEach(func(o objID) { f(o, elemSlot) })
		}
	}
}

// computeShared is the TL analysis of Section 5.4: an abstract object is
// thread-shared if it is reachable from a static field or from anything
// handed to a spawned thread, transitively through heap fields. Note the
// paper's observation that TL "typically treats a static field as
// thread-shared even if only one thread ever uses it" — true here too.
func computeShared(p *ir.Program, res *PTA) pta.Set {
	s := res.s
	roots := pta.NewSet(s.numObjs)
	// Statics holders are thread-shared by definition; what their fields
	// point to follows through the closure.
	for o := 2 * s.numSites; o < s.numObjs; o++ {
		roots.Add(o)
	}
	// Receivers/arguments of spawn sites in reachable code.
	for _, m := range p.Methods {
		for _, ctx := range []Ctx{NonTxn, Txn} {
			if !res.Reachable(m, ctx) {
				continue
			}
			for _, b := range m.Blocks {
				for i := range b.Instrs {
					in := &b.Instrs[i]
					if in.Op != ir.Spawn {
						continue
					}
					for _, a := range in.Args {
						if n, ok := s.varNodes[varKey{m, ctx, a}]; ok {
							s.g.PointsTo(n).ForEach(func(o objID) { roots.Add(o) })
						}
					}
				}
			}
		}
	}
	fieldsOf := make(map[objID][]pta.Node)
	for k, n := range s.fieldNodes {
		fieldsOf[k.obj] = append(fieldsOf[k.obj], n)
	}
	return s.g.Closure(roots, func(o objID) []pta.Node { return fieldsOf[o] })
}
