// Package pta is the inclusion-constraint (Andersen-style) solver under
// both whole-program analyses of the paper's Section 5: the toy-IR pipeline
// in internal/analysis and the Go embedding in internal/vetstm/interproc.
// A front-end creates nodes, seeds them with abstract objects, and states
// two kinds of constraint: pts(dst) ⊇ pts(src) (Copy), and "call f(o) once
// for every o that is or ever becomes a member of pts(n)" (Each), which is
// what a field load, a field store and a virtual-call site all are. What an
// object or a node stands for (allocation site, context, field, slot) is
// the front-end's business; the solver sees small integers.
//
// Propagation is by difference: a node hands its successors and its
// deferred constraints only the members it has gained since it was last
// visited, and a copy edge is stored once however often it is stated.
package pta

import "math/bits"

// Set is a bit set over the object universe fixed by New.
type Set []uint64

// NewSet returns an empty set over a universe of n objects.
func NewSet(n int) Set { return make(Set, (n+63)/64) }

// Add inserts i and reports whether it was absent.
func (s Set) Add(i int) bool {
	w, m := i/64, uint64(1)<<uint(i%64)
	if s[w]&m != 0 {
		return false
	}
	s[w] |= m
	return true
}

// Has reports whether i is a member.
func (s Set) Has(i int) bool { return s[i/64]&(1<<uint(i%64)) != 0 }

// ForEach calls f for every member in ascending order.
func (s Set) ForEach(f func(int)) {
	for w, word := range s {
		for word != 0 {
			tz := bits.TrailingZeros64(word)
			f(w*64 + tz)
			word &^= 1 << uint(tz)
		}
	}
}

// Node names one points-to set in a Graph.
type Node int

type edge struct{ src, dst Node }

// Graph is the constraint graph and its solver state.
type Graph struct {
	universe int

	pts   []Set // per node: every member found so far
	fresh []Set // per node: the members its successors and constraints have not seen
	succ  [][]Node
	each  [][]func(obj int)
	edges map[edge]struct{}

	worklist []Node
	queued   []bool
}

// New returns an empty graph whose points-to sets range over objects
// 0..universe-1.
func New(universe int) *Graph {
	return &Graph{universe: universe, edges: make(map[edge]struct{})}
}

// NewNode adds a node with an empty points-to set.
func (g *Graph) NewNode() Node {
	g.pts = append(g.pts, NewSet(g.universe))
	g.fresh = append(g.fresh, NewSet(g.universe))
	g.succ = append(g.succ, nil)
	g.each = append(g.each, nil)
	g.queued = append(g.queued, false)
	return Node(len(g.pts) - 1)
}

// PointsTo returns pts(n). The set is the graph's own: read it, and only
// once Solve has returned.
func (g *Graph) PointsTo(n Node) Set { return g.pts[n] }

// Add states obj ∈ pts(n).
func (g *Graph) Add(n Node, obj int) {
	if g.pts[n].Add(obj) {
		g.fresh[n].Add(obj)
		g.push(n)
	}
}

// Copy states pts(dst) ⊇ pts(src).
func (g *Graph) Copy(src, dst Node) {
	e := edge{src, dst}
	if _, dup := g.edges[e]; src == dst || dup {
		return
	}
	g.edges[e] = struct{}{}
	g.succ[src] = append(g.succ[src], dst)
	g.flow(g.pts[src], dst)
}

// Each states a deferred constraint on n: f(obj) is called exactly once for
// every member of pts(n), those present now and those that arrive before
// Solve returns. f may create nodes and state further constraints, on n too.
func (g *Graph) Each(n Node, f func(obj int)) {
	g.each[n] = append(g.each[n], f)
	// Members still in fresh(n) reach f when Solve next visits n.
	var seen []int
	fresh := g.fresh[n]
	g.pts[n].ForEach(func(obj int) {
		if !fresh.Has(obj) {
			seen = append(seen, obj)
		}
	})
	for _, obj := range seen {
		f(obj)
	}
}

// Solve runs the constraints to their least fixpoint.
func (g *Graph) Solve() {
	var delta Set // fresh(n) at the visit; callbacks refill fresh(n) meanwhile
	for len(g.worklist) > 0 {
		n := g.worklist[len(g.worklist)-1]
		g.worklist = g.worklist[:len(g.worklist)-1]
		g.queued[n] = false
		delta = append(delta[:0], g.fresh[n]...)
		clear(g.fresh[n])
		for _, dst := range g.succ[n] {
			g.flow(delta, dst)
		}
		// A constraint stated from inside f is not in this range; Each has
		// already shown it delta, whose members are no longer fresh.
		for _, f := range g.each[n] {
			delta.ForEach(f)
		}
	}
}

// Closure returns the least set that contains roots and, with an object o,
// every member of pts(n) for each n in fields(o): what is reachable from
// the roots through the heap. Call it after Solve.
func (g *Graph) Closure(roots Set, fields func(obj int) []Node) Set {
	reached := NewSet(g.universe)
	var work []int
	add := func(obj int) {
		if reached.Add(obj) {
			work = append(work, obj)
		}
	}
	roots.ForEach(add)
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		for _, n := range fields(obj) {
			g.pts[n].ForEach(add)
		}
	}
	return reached
}

func (g *Graph) push(n Node) {
	if !g.queued[n] {
		g.queued[n] = true
		g.worklist = append(g.worklist, n)
	}
}

// flow adds the members of from that dst lacks to pts(dst) and fresh(dst).
func (g *Graph) flow(from Set, dst Node) {
	pts, fresh := g.pts[dst], g.fresh[dst]
	grew := false
	for i, w := range from {
		if add := w &^ pts[i]; add != 0 {
			pts[i] |= add
			fresh[i] |= add
			grew = true
		}
	}
	if grew {
		g.push(dst)
	}
}
