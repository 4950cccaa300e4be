package objmodel

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/txrec"
)

func newTestHeap() *Heap { return NewHeap() }

func defineItem(t testing.TB, h *Heap) *Class {
	t.Helper()
	return h.MustDefineClass(ClassSpec{
		Name: "Item",
		Fields: []Field{
			{Name: "val1"},
			{Name: "val2"},
			{Name: "next", IsRef: true},
		},
	})
}

func TestDefineClassLayout(t *testing.T) {
	h := newTestHeap()
	item := defineItem(t, h)
	if item.NumSlots != 3 {
		t.Fatalf("NumSlots = %d, want 3", item.NumSlots)
	}
	if f := item.FieldByName("val2"); f == nil || f.Slot != 1 || f.IsRef {
		t.Errorf("val2 field = %+v", f)
	}
	if f := item.FieldByName("next"); f == nil || f.Slot != 2 || !f.IsRef {
		t.Errorf("next field = %+v", f)
	}
	if len(item.RefSlots) != 1 || item.RefSlots[0] != 2 {
		t.Errorf("RefSlots = %v, want [2]", item.RefSlots)
	}
	if item.FieldByName("nope") != nil {
		t.Error("unknown field lookup should return nil")
	}
}

func TestDefineClassInheritance(t *testing.T) {
	h := newTestHeap()
	base := h.MustDefineClass(ClassSpec{
		Name:   "Base",
		Fields: []Field{{Name: "a"}, {Name: "link", IsRef: true}},
	})
	sub := h.MustDefineClass(ClassSpec{
		Name:   "Sub",
		Super:  base,
		Fields: []Field{{Name: "b"}, {Name: "peer", IsRef: true}},
	})
	if sub.NumSlots != 4 {
		t.Fatalf("Sub.NumSlots = %d, want 4", sub.NumSlots)
	}
	if f := sub.FieldByName("a"); f == nil || f.Slot != 0 {
		t.Errorf("inherited field a = %+v", f)
	}
	if f := sub.FieldByName("peer"); f == nil || f.Slot != 3 {
		t.Errorf("field peer = %+v", f)
	}
	want := []int{1, 3}
	if len(sub.RefSlots) != 2 || sub.RefSlots[0] != want[0] || sub.RefSlots[1] != want[1] {
		t.Errorf("Sub.RefSlots = %v, want %v", sub.RefSlots, want)
	}
	if !sub.IsSubclassOf(base) || !sub.IsSubclassOf(sub) {
		t.Error("IsSubclassOf failed for direct relationship")
	}
	if base.IsSubclassOf(sub) {
		t.Error("base must not be a subclass of sub")
	}
}

func TestDefineClassDuplicate(t *testing.T) {
	h := newTestHeap()
	defineItem(t, h)
	if _, err := h.DefineClass(ClassSpec{Name: "Item"}); err == nil {
		t.Error("duplicate class definition should fail")
	}
}

func TestAllocAndHandleRoundTrip(t *testing.T) {
	h := newTestHeap()
	item := defineItem(t, h)
	var refs []Ref
	for i := 0; i < 100; i++ {
		o := h.New(item)
		o.StoreSlot(0, uint64(i))
		refs = append(refs, o.Ref())
	}
	for i, r := range refs {
		o := h.Get(r)
		if got := o.LoadSlot(0); got != uint64(i) {
			t.Fatalf("object %d: slot0 = %d", i, got)
		}
		if o.Ref() != r {
			t.Fatalf("object %d: Ref() = %d, want %d", i, o.Ref(), r)
		}
	}
	if h.Len() != 100 {
		t.Errorf("heap Len = %d, want 100", h.Len())
	}
}

func TestNullHandling(t *testing.T) {
	h := newTestHeap()
	if h.TryGet(Null) != nil {
		t.Error("TryGet(Null) should be nil")
	}
	defer func() {
		if r := recover(); r != ErrNullDeref {
			t.Errorf("Get(Null) panic = %v, want ErrNullDeref", r)
		}
	}()
	h.Get(Null)
}

func TestAllocStateSharedByDefault(t *testing.T) {
	h := newTestHeap()
	item := defineItem(t, h)
	o := h.New(item)
	w := o.Rec.Load()
	if !txrec.IsShared(w) || txrec.Version(w) != 1 {
		t.Errorf("default alloc record = %#x, want shared v1", w)
	}
	if o.IsPrivate() {
		t.Error("IsPrivate true for shared object")
	}
}

func TestAllocPrivateWithDEA(t *testing.T) {
	h := newTestHeap()
	h.AllocPrivate = true
	item := defineItem(t, h)
	o := h.New(item)
	if !o.IsPrivate() {
		t.Error("object not born private under dynamic escape analysis")
	}
	pub := h.NewPublic(item)
	if pub.IsPrivate() {
		t.Error("NewPublic object must not be private")
	}
	arr := h.NewArray(4, false)
	if !arr.IsPrivate() {
		t.Error("array not born private under dynamic escape analysis")
	}
}

func TestArrays(t *testing.T) {
	h := newTestHeap()
	a := h.NewArray(10, false)
	if a.Len != 10 || a.Class.Kind != KindArray || a.Class.ElemIsRef {
		t.Fatalf("array metadata wrong: %+v", a.Class)
	}
	for i := 0; i < 10; i++ {
		a.StoreSlot(i, uint64(i*i))
	}
	for i := 0; i < 10; i++ {
		if a.LoadSlot(i) != uint64(i*i) {
			t.Fatalf("elem %d = %d", i, a.LoadSlot(i))
		}
	}
	ra := h.NewArray(3, true)
	if !ra.IsRefSlot(0) || !ra.IsRefSlot(2) {
		t.Error("ref array slots must be ref slots")
	}
	if a.IsRefSlot(0) {
		t.Error("scalar array slots must not be ref slots")
	}
}

func TestIsRefSlot(t *testing.T) {
	h := newTestHeap()
	item := defineItem(t, h)
	o := h.New(item)
	if o.IsRefSlot(0) || o.IsRefSlot(1) {
		t.Error("scalar slots misreported as refs")
	}
	if !o.IsRefSlot(2) {
		t.Error("ref slot misreported as scalar")
	}
}

// TestPublishGraph builds a private linked structure with a cycle and a
// branch and verifies Publish marks the whole reachable subgraph public
// (Figure 11).
func TestPublishGraph(t *testing.T) {
	h := newTestHeap()
	h.AllocPrivate = true
	item := defineItem(t, h)
	a, b, c, d := h.New(item), h.New(item), h.New(item), h.New(item)
	// a -> b -> c -> a (cycle), b also reaches an array holding d.
	a.StoreSlot(2, uint64(b.Ref()))
	b.StoreSlot(2, uint64(c.Ref()))
	c.StoreSlot(2, uint64(a.Ref()))
	arr := h.NewArray(3, true)
	arr.StoreSlot(1, uint64(d.Ref()))
	// Hook the array into the graph through c's ref slot... c already points
	// at a; use d's next to reach the array instead: a->b->c->a and c->...
	// Give b a second path by pointing d at the array and c at d.
	c.StoreSlot(2, uint64(d.Ref()))
	d.StoreSlot(2, uint64(arr.Ref()))

	unreach := h.New(item)

	h.Publish(a)
	for i, o := range []*Object{a, b, c, d, arr} {
		if o.IsPrivate() {
			t.Errorf("object %d still private after publish", i)
		}
		w := o.Rec.Load()
		if !txrec.IsShared(w) || txrec.Version(w) != 1 {
			t.Errorf("object %d record = %#x, want shared v1", i, w)
		}
	}
	if !unreach.IsPrivate() {
		t.Error("unreachable object must stay private")
	}
	if got := h.PublishedObjects.Load(); got != 5 {
		t.Errorf("PublishedObjects = %d, want 5", got)
	}
}

// TestPublishStopsAtPublic checks that traversal does not continue through
// already-public objects ("No private objects are reachable through public
// objects" is the invariant; a public boundary ends the walk).
func TestPublishStopsAtPublic(t *testing.T) {
	h := newTestHeap()
	h.AllocPrivate = true
	item := defineItem(t, h)
	a := h.New(item)
	pub := h.NewPublic(item)
	a.StoreSlot(2, uint64(pub.Ref()))
	h.Publish(a)
	if a.IsPrivate() {
		t.Error("a still private")
	}
	if got := h.PublishedObjects.Load(); got != 1 {
		t.Errorf("PublishedObjects = %d, want 1 (public boundary not counted)", got)
	}
}

func TestPublishIdempotent(t *testing.T) {
	h := newTestHeap()
	h.AllocPrivate = true
	item := defineItem(t, h)
	a := h.New(item)
	h.Publish(a)
	h.Publish(a) // second publish is a no-op
	if got := h.PublishedObjects.Load(); got != 1 {
		t.Errorf("PublishedObjects = %d after double publish, want 1", got)
	}
	h.PublishRef(Null) // must not panic
}

// TestPublishChainProperty: publishing the head of a randomly-sized chain
// publishes exactly the chain.
func TestPublishChainProperty(t *testing.T) {
	h := newTestHeap()
	h.AllocPrivate = true
	item := defineItem(t, h)
	if err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%50) + 1
		before := h.PublishedObjects.Load()
		objs := make([]*Object, n)
		for i := range objs {
			objs[i] = h.New(item)
			if i > 0 {
				objs[i-1].StoreSlot(2, uint64(objs[i].Ref()))
			}
		}
		h.Publish(objs[0])
		for _, o := range objs {
			if o.IsPrivate() {
				return false
			}
		}
		return h.PublishedObjects.Load()-before == int64(n)
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMonitorReentrancy(t *testing.T) {
	h := newTestHeap()
	item := defineItem(t, h)
	o := h.New(item)
	m := o.Monitor()
	if m != o.Monitor() {
		t.Fatal("Monitor() must be stable")
	}
	m.Enter(1)
	m.Enter(1) // reentrant
	m.Exit(1)
	done := make(chan struct{})
	go func() {
		m2 := o.Monitor()
		m2.Enter(2)
		m2.Exit(2)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("second thread acquired a held monitor")
	default:
	}
	m.Exit(1)
	<-done
}

func TestMonitorExitByNonOwnerPanics(t *testing.T) {
	h := newTestHeap()
	o := h.New(defineItem(t, h))
	m := o.Monitor()
	m.Enter(1)
	defer m.Exit(1)
	defer func() {
		if recover() == nil {
			t.Error("Exit by non-owner did not panic")
		}
	}()
	m.Exit(2)
}

// TestConcurrentAllocation checks the heap table under parallel allocation
// and lookup: allocators look up their own earlier objects, readers resolve
// the newest handle Len reports while the table grows under them, and once
// allocation stops a handle above Len still panics though it falls inside
// the table's spare capacity.
func TestConcurrentAllocation(t *testing.T) {
	h := newTestHeap()
	item := defineItem(t, h)
	const (
		goroutines = 8
		readers    = 2
		perG       = 500
	)
	var wg, rg sync.WaitGroup
	var stop atomic.Bool
	for range readers {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for !stop.Load() {
				n := Ref(h.Len())
				if n == 0 {
					continue
				}
				if o := h.Get(n); o == nil || o.Ref() != n || o.Class != item || len(o.Slots) != item.NumSlots {
					t.Errorf("Get(%d) of a heap of %d objects = %+v", n, n, o)
					return
				}
				if o := h.TryGet(n / 2); n > 1 && (o == nil || o.Ref() != n/2) {
					t.Errorf("TryGet(%d) = %+v", n/2, o)
					return
				}
			}
		}()
	}
	refs := make([][]Ref, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				o := h.New(item)
				o.StoreSlot(0, uint64(g*perG+i))
				refs[g] = append(refs[g], o.Ref())
				// Interleave lookups of our own earlier objects.
				if i > 0 {
					r := refs[g][i/2]
					if h.Get(r) == nil {
						t.Errorf("lost object %d", r)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	stop.Store(true)
	rg.Wait()
	if h.Len() != goroutines*perG {
		t.Fatalf("heap Len = %d, want %d", h.Len(), goroutines*perG)
	}
	seen := make(map[uint64]bool)
	for g := range refs {
		for _, r := range refs[g] {
			v := h.Get(r).LoadSlot(0)
			if seen[v] {
				t.Fatalf("duplicate payload %d", v)
			}
			seen[v] = true
		}
	}
	above := Ref(h.Len() + 1)
	if spare := len(*h.table.Load()); int(above) > spare {
		t.Fatalf("handle %d is past the table's %d entries: the test checks nothing", above, spare)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("Get(%d) in a heap of %d objects did not panic", above, h.Len())
		}
	}()
	h.Get(above)
}

// TestObjectsShareNoLine: objects allocated from several goroutines, of
// classes with and without inline slots and arrays, share no 64-byte line
// of their data (header fields and inline slots), wherever the slab they
// were carved from starts, and an object of up to inlineSlots slots holds
// them in its own header.
func TestObjectsShareNoLine(t *testing.T) {
	h := newTestHeap()
	var classes []*Class
	for _, n := range []int{0, 1, 4, 5} {
		fields := make([]Field, n)
		for i := range fields {
			fields[i].Name = fmt.Sprintf("f%d", i)
		}
		classes = append(classes, h.MustDefineClass(ClassSpec{Name: fmt.Sprintf("C%d", n), Fields: fields}))
	}
	const goroutines, perG = 4, 300
	objs := make([][]*Object, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perG {
				var o *Object
				switch k := i % 6; k {
				case 4:
					o = h.NewArray(i%7, false)
				case 5:
					o = h.NewArray(2, true)
				default:
					o = h.New(classes[k])
				}
				objs[g] = append(objs[g], o)
			}
		}()
	}
	wg.Wait()
	data := unsafe.Offsetof(Object{}.inline) + unsafe.Sizeof(Object{}.inline)
	lines := make(map[uintptr]*Object)
	for _, os := range objs {
		for _, o := range os {
			at := uintptr(unsafe.Pointer(o))
			for l := at / 64; l <= (at+data-1)/64; l++ {
				if p, ok := lines[l]; ok {
					t.Fatalf("objects %d (at %#x) and %d (at %#x) share line %#x", p.Ref(), uintptr(unsafe.Pointer(p)), o.Ref(), at, l*64)
				}
				lines[l] = o
			}
			if n := len(o.Slots); n > 0 && n <= inlineSlots {
				if s := uintptr(unsafe.Pointer(&o.Slots[0])); s < at || s >= at+unsafe.Sizeof(*o) {
					t.Fatalf("object %d of %d slots: slots at %#x, outside its header at %#x", o.Ref(), n, s, at)
				}
			}
		}
	}
}

// TestNewAllocations: an object of up to inlineSlots slots is carved from a
// slab, so 16 of them cost at most one allocation (slabs and table growth,
// amortised); one with more costs exactly one, its slot array.
func TestNewAllocations(t *testing.T) {
	h := newTestHeap()
	c4 := h.MustDefineClass(ClassSpec{Name: "C4", Fields: make([]Field, 4)})
	c33 := h.MustDefineClass(ClassSpec{Name: "C33", Fields: make([]Field, 33)})
	if a := testing.AllocsPerRun(100, func() {
		for range 16 {
			h.New(c4)
		}
	}); a > 1 {
		t.Errorf("16 objects of 4 slots: %v allocations, want at most 1", a)
	}
	if a := testing.AllocsPerRun(1000, func() { h.New(c33) }); a != 1 {
		t.Errorf("an object of 33 slots: %v allocations, want 1", a)
	}
}

func TestMustDefineClassPanics(t *testing.T) {
	h := newTestHeap()
	defineItem(t, h)
	defer func() {
		if recover() == nil {
			t.Error("MustDefineClass on duplicate did not panic")
		}
	}()
	h.MustDefineClass(ClassSpec{Name: "Item"})
}

func TestClassByName(t *testing.T) {
	h := newTestHeap()
	item := defineItem(t, h)
	if h.ClassByName("Item") != item {
		t.Error("ClassByName lookup failed")
	}
	if h.ClassByName("Missing") != nil {
		t.Error("ClassByName for missing class should be nil")
	}
}

func ExampleHeap_Publish() {
	h := NewHeap()
	h.AllocPrivate = true
	node := h.MustDefineClass(ClassSpec{
		Name:   "Node",
		Fields: []Field{{Name: "v"}, {Name: "next", IsRef: true}},
	})
	a := h.New(node)
	b := h.New(node)
	a.StoreSlot(1, uint64(b.Ref()))
	fmt.Println("a private:", a.IsPrivate(), "b private:", b.IsPrivate())
	h.Publish(a)
	fmt.Println("a private:", a.IsPrivate(), "b private:", b.IsPrivate())
	// Output:
	// a private: true b private: true
	// a private: false b private: false
}
