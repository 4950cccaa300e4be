package pta

import (
	"reflect"
	"testing"
)

func members(s Set) []int {
	out := []int{}
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

func wantPts(t *testing.T, g *Graph, n Node, want ...int) {
	t.Helper()
	if got := members(g.PointsTo(n)); !reflect.DeepEqual(got, want) {
		t.Errorf("pts(%d) = %v, want %v", n, got, want)
	}
}

func TestCopyCycleReachesFixpoint(t *testing.T) {
	g := New(130) // three words: members on both sides of a word boundary
	a, b, c := g.NewNode(), g.NewNode(), g.NewNode()
	g.Copy(a, b)
	g.Copy(b, c)
	g.Copy(c, a)
	g.Add(a, 1)
	g.Add(b, 64)
	g.Solve()
	g.Add(c, 129) // a second round on a solved graph
	g.Solve()
	for _, n := range []Node{a, b, c} {
		wantPts(t, g, n, 1, 64, 129)
	}
}

// A constraint sees each member exactly once, whether the member was there
// before Each (already visited by Solve, or still waiting for its visit) or
// arrives afterwards, directly or along a copy edge.
func TestEachFiresOncePerMember(t *testing.T) {
	g := New(8)
	src, n := g.NewNode(), g.NewNode()
	early := map[int]int{}
	g.Each(n, func(o int) { early[o]++ }) // n has no member yet
	g.Copy(src, n)
	g.Add(src, 1)
	g.Add(n, 2)
	g.Solve()

	g.Add(n, 3) // present but not yet visited when late is stated
	late := map[int]int{}
	g.Each(n, func(o int) { late[o]++ })
	g.Add(src, 4) // arrives after both
	g.Add(src, 1) // already a member: no second call
	g.Solve()

	want := map[int]int{1: 1, 2: 1, 3: 1, 4: 1}
	if !reflect.DeepEqual(early, want) {
		t.Errorf("constraint stated on an empty node saw %v, want %v", early, want)
	}
	if !reflect.DeepEqual(late, want) {
		t.Errorf("constraint stated on a half-visited node saw %v, want %v", late, want)
	}
}

// The shape on-the-fly call resolution has: a receiver object selects a
// method; binding it creates the method's nodes, seeds an allocation in its
// body, states a second deferred constraint on the same receiver node, and
// returns a value that flows back into the receiver.
func TestConstraintsStatedDuringSolve(t *testing.T) {
	const objA, objB, objC = 0, 1, 2
	g := New(3)
	recv := g.NewNode()
	bound := map[int]int{}
	inner := map[int]int{}
	var this, ret Node
	g.Each(recv, func(o int) {
		bound[o]++
		if o != objA {
			return // only A's class has a body worth binding
		}
		this, ret = g.NewNode(), g.NewNode()
		g.Copy(recv, this)
		g.Add(ret, objB)  // the body allocates B ...
		g.Copy(ret, recv) // ... and the call's result flows to the receiver
		g.Each(recv, func(o int) { inner[o]++ })
	})
	g.Add(recv, objA)
	g.Solve()
	g.Add(recv, objC)
	g.Solve()

	all := map[int]int{objA: 1, objB: 1, objC: 1}
	if !reflect.DeepEqual(bound, all) {
		t.Errorf("outer constraint saw %v, want %v", bound, all)
	}
	if !reflect.DeepEqual(inner, all) {
		t.Errorf("constraint stated inside a callback saw %v, want %v", inner, all)
	}
	wantPts(t, g, this, objA, objB, objC)
	wantPts(t, g, ret, objB)
}

// Restating an edge stores nothing: a load through a base that keeps
// growing, stated twice, leaves one edge per (field, dst) pair. The loops
// this package replaced re-walked pts(base) on every visit and appended
// each time.
func TestCopyEdgesStoredOnce(t *testing.T) {
	const n = 6
	g := New(n)
	base, dst := g.NewNode(), g.NewNode()
	field := make([]Node, n)
	for o := range field {
		field[o] = g.NewNode()
		g.Add(field[o], o)
	}
	load := func(o int) { g.Copy(field[o], dst) }
	g.Each(base, load)
	g.Each(base, load)
	for o := 0; o < n; o++ {
		g.Add(base, o)
		g.Solve() // one visit of base per member
	}
	g.Copy(dst, dst)
	g.Copy(base, dst)
	g.Copy(base, dst)

	stored := 0
	distinct := map[edge]bool{}
	for src, succ := range g.succ {
		stored += len(succ)
		for _, d := range succ {
			distinct[edge{Node(src), d}] = true
		}
	}
	if stored != n+1 || len(distinct) != stored {
		t.Errorf("%d edges stored, %d distinct, want %d of each", stored, len(distinct), n+1)
	}
	wantPts(t, g, dst, 0, 1, 2, 3, 4, 5)
}

func TestClosureThroughFields(t *testing.T) {
	// 0 -> 1 -> 2 -> 0 through one field node each; 3 -> 4 is not reachable
	// from the root; 5 has no field.
	g := New(6)
	field := map[int][]Node{}
	link := func(from, to int) {
		n := g.NewNode()
		g.Add(n, to)
		field[from] = append(field[from], n)
	}
	link(0, 1)
	link(1, 2)
	link(2, 0)
	link(1, 5)
	link(3, 4)
	g.Solve()
	roots := NewSet(6)
	roots.Add(0)
	got := g.Closure(roots, func(o int) []Node { return field[o] })
	if want := []int{0, 1, 2, 5}; !reflect.DeepEqual(members(got), want) {
		t.Errorf("closure = %v, want %v", members(got), want)
	}
	if got.Has(3) || !got.Has(5) {
		t.Errorf("Has disagrees with ForEach: %v", members(got))
	}
}
