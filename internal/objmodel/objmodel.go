// Package objmodel provides the managed object model on which the STM
// operates: classes with word-sized slots, objects carrying a transaction
// record, arrays, per-class statics, and a handle-based heap.
//
// The paper's system runs inside a Java virtual machine where every object
// has a "transaction field holding its transaction record" (Section 3.1).
// We reproduce that environment: every Object embeds a txrec.Rec, every
// field or array element occupies one atomically-accessed 64-bit slot, and
// references between objects are word-sized handles into a heap table. The
// uniform word-granularity layout is what lets us reproduce the paper's
// granularity anomalies (Section 2.4) exactly: an undo-log or write-buffer
// entry that spans two adjacent slots manufactures writes to the neighbour
// slot just as an 8-byte log entry does for two adjacent 4-byte fields.
package objmodel

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/txrec"
)

// Ref is a reference to a managed object: an opaque handle into a Heap.
// The zero Ref is null.
type Ref uint64

// Null is the null reference.
const Null Ref = 0

// Field describes one declared field of a class.
type Field struct {
	Name     string
	Slot     int  // slot index in the object (after flattening inheritance)
	IsRef    bool // true if the field holds a Ref
	Final    bool // immutable after construction; barriers elidable
	Volatile bool // Java volatile; always accessed with SC atomics here
}

// Class describes the layout of a kind of object. Classes are immutable
// once created (before any object of the class is allocated).
type Class struct {
	Name     string
	Super    *Class
	Fields   []Field // flattened: inherited fields first, in slot order
	NumSlots int
	RefSlots []int // slot indexes holding references, ascending

	// Kind distinguishes ordinary objects from arrays and statics holders.
	Kind ClassKind

	// ElemIsRef is meaningful only for array classes.
	ElemIsRef bool

	byName map[string]*Field
}

// ClassKind discriminates the runtime flavors of Class.
type ClassKind uint8

// Class kinds.
const (
	KindObject ClassKind = iota
	KindArray
	KindStatics
)

// FieldByName returns the field with the given name, or nil.
func (c *Class) FieldByName(name string) *Field {
	if f, ok := c.byName[name]; ok {
		return f
	}
	return nil
}

// IsSubclassOf reports whether c is t or a subclass of t.
func (c *Class) IsSubclassOf(t *Class) bool {
	for s := c; s != nil; s = s.Super {
		if s == t {
			return true
		}
	}
	return false
}

// Object is a managed heap object. Slots hold either scalar values or Refs
// (as indicated by the class layout); every slot access is atomic so that
// racy programs stay within the Go memory model while still exhibiting the
// paper's STM-level anomalies.
type Object struct {
	Rec   txrec.Rec
	Class *Class
	Slots []atomic.Uint64
	Len   int // array length; 0 for non-arrays

	// MVHead is the newest superseded version in the object's multi-version
	// chain (internal/mvstm; the newest committed version is the slots
	// themselves); nil until a multi-version transaction first commits a
	// write to the object. It lives here rather than in mvstm so snapshot
	// readers reach the chain with one pointer load off the object.
	MVHead atomic.Pointer[MVVersion]

	// MVLen is the number of nodes on the chain from MVHead, so that a
	// committer can drop a dead chain without walking it. Only the holder of
	// the object's record reads or writes it.
	MVLen int

	ref Ref // this object's own handle

	monitor atomic.Pointer[Monitor] // lazily allocated Java-style monitor

	// inline backs Slots for objects of up to inlineSlots slots, so such an
	// object costs no allocation beyond its share of a heap slab.
	inline [inlineSlots]atomic.Uint64

	// Objects are carved from shared slabs rather than each worker's own
	// allocation span, so each is padded to 128 bytes: no two objects' data
	// share a 64-byte line, with the slab starting 0 or 8 bytes (Go's malloc
	// header) past a line boundary.
	_ [16]byte
}

// Ref returns the object's handle.
func (o *Object) Ref() Ref { return o.ref }

// IsPrivate reports whether the object is currently in the private state
// (dynamic escape analysis, Section 4).
func (o *Object) IsPrivate() bool { return txrec.IsPrivate(o.Rec.Load()) }

// IsRefSlot reports whether slot i of this object holds a reference.
func (o *Object) IsRefSlot(i int) bool {
	if o.Class.Kind == KindArray {
		return o.Class.ElemIsRef
	}
	for _, s := range o.Class.RefSlots {
		if s == i {
			return true
		}
		if s > i {
			break
		}
	}
	return false
}

// LoadSlot reads slot i directly (no barrier).
func (o *Object) LoadSlot(i int) uint64 { return o.Slots[i].Load() }

// StoreSlot writes slot i directly (no barrier).
func (o *Object) StoreSlot(i int, v uint64) { o.Slots[i].Store(v) }

// Monitor is a reentrant lock implementing Java synchronized semantics.
type Monitor struct {
	mu    sync.Mutex
	owner atomic.Int64 // goroutine-level logical thread ID, 0 if unowned
	depth int
}

// Enter acquires the monitor on behalf of logical thread tid, reentrantly.
func (m *Monitor) Enter(tid int64) {
	if m.owner.Load() == tid {
		m.depth++
		return
	}
	m.mu.Lock()
	m.owner.Store(tid)
	m.depth = 1
}

// Exit releases one level of the monitor held by tid.
func (m *Monitor) Exit(tid int64) {
	if m.owner.Load() != tid {
		panic("objmodel: monitor exit by non-owner")
	}
	m.depth--
	if m.depth == 0 {
		m.owner.Store(0)
		m.mu.Unlock()
	}
}

// Monitor returns the object's monitor, allocating it on first use.
func (o *Object) Monitor() *Monitor {
	if m := o.monitor.Load(); m != nil {
		return m
	}
	m := &Monitor{}
	if o.monitor.CompareAndSwap(nil, m) {
		return m
	}
	return o.monitor.Load()
}

// Heap is a handle-indexed table of objects. Object lookup is two atomic
// loads plus an index; allocation carves the object from a slab and appends
// it to the table in place under a lock, so readers never block.
type Heap struct {
	mu    sync.Mutex
	table atomic.Pointer[[]*Object] // len is the capacity; entries [0, n) are live
	n     atomic.Int64              // the number of objects; storing it publishes the newest
	slab  []Object                  // the current slab's uncarved tail, under mu

	// AllocPrivate controls the initial transaction-record state of new
	// objects: when true (dynamic escape analysis enabled) objects are born
	// private; otherwise they are born shared with version 1.
	AllocPrivate bool

	// Published counts publishObject invocations (for experiments).
	Published atomic.Int64
	// PublishedObjects counts objects transitioned private→shared.
	PublishedObjects atomic.Int64

	classes  map[string]*Class
	classMu  sync.Mutex
	arrayCls [2]*Class // [0] scalar elements, [1] ref elements

	// manifest, when non-nil, maps allocation sites to the static
	// NAIT/TL classification loaded via ApplyManifest (manifest.go).
	manifest atomic.Pointer[manifestIndex]
	obsMu    sync.Mutex
	allocObs atomic.Pointer[[]AllocObserver]

	// clock is the heap-global commit clock shared by every runtime and
	// barrier set attached to this heap. It lives on the heap — not on a
	// runtime — because non-transactional write barriers must advance it
	// too, and they hold only a heap reference.
	clock CommitClock
}

// Clock returns the heap's commit clock.
func (h *Heap) Clock() *CommitClock { return &h.clock }

// NewHeap creates an empty heap.
func NewHeap() *Heap {
	h := &Heap{classes: make(map[string]*Class)}
	initial := make([]*Object, minSlab)
	h.table.Store(&initial)
	// Objects are born shared at version 1; start the clock level with them
	// so a fresh transaction's snapshot covers every fresh object.
	h.clock.Reset(1)
	h.arrayCls[0] = &Class{Name: "[]word", Kind: KindArray, ElemIsRef: false}
	h.arrayCls[1] = &Class{Name: "[]ref", Kind: KindArray, ElemIsRef: true}
	return h
}

// ClassSpec describes a class to define: field order determines slots after
// the superclass's slots.
type ClassSpec struct {
	Name   string
	Super  *Class
	Fields []Field // Slot values are assigned by DefineClass
	Kind   ClassKind
}

// DefineClass creates and registers a class. Field slot indexes are
// assigned sequentially after inherited slots.
func (h *Heap) DefineClass(spec ClassSpec) (*Class, error) {
	h.classMu.Lock()
	defer h.classMu.Unlock()
	if _, dup := h.classes[spec.Name]; dup {
		return nil, fmt.Errorf("objmodel: class %q already defined", spec.Name)
	}
	c := &Class{
		Name:   spec.Name,
		Super:  spec.Super,
		Kind:   spec.Kind,
		byName: make(map[string]*Field),
	}
	base := 0
	if spec.Super != nil {
		base = spec.Super.NumSlots
		c.Fields = append(c.Fields, spec.Super.Fields...)
		c.RefSlots = append(c.RefSlots, spec.Super.RefSlots...)
	}
	for i, f := range spec.Fields {
		f.Slot = base + i
		c.Fields = append(c.Fields, f)
		if f.IsRef {
			c.RefSlots = append(c.RefSlots, f.Slot)
		}
	}
	c.NumSlots = base + len(spec.Fields)
	for i := range c.Fields {
		c.byName[c.Fields[i].Name] = &c.Fields[i]
	}
	h.classes[spec.Name] = c
	return c, nil
}

// MustDefineClass is DefineClass that panics on error, for test and
// workload setup code.
func (h *Heap) MustDefineClass(spec ClassSpec) *Class {
	c, err := h.DefineClass(spec)
	if err != nil {
		panic(err)
	}
	return c
}

// ClassByName returns a registered class or nil.
func (h *Heap) ClassByName(name string) *Class {
	h.classMu.Lock()
	defer h.classMu.Unlock()
	return h.classes[name]
}

// An object of up to inlineSlots slots keeps them inline. A new slab holds
// as many objects as the heap has, at least minSlab, so that a heap of a few
// objects zeroes a few kilobytes, and at most maxSlab (32 KB). The handle
// table starts at minSlab entries and doubles.
const (
	inlineSlots = 4
	minSlab     = 16
	maxSlab     = 256
)

// New allocates an object of class c. With AllocPrivate the object is born
// private (Section 4: "A freshly minted object is private"). With an
// elision manifest loaded, a call site the static analysis classified
// NAIT or thread-local also yields a private-born object.
func (h *Heap) New(c *Class) *Object {
	return h.allocAt(c, c.NumSlots, h.manifestSite())
}

// NewPublic allocates an object that is public from birth regardless of
// AllocPrivate. Statics holders and Thread objects use this.
func (h *Heap) NewPublic(c *Class) *Object {
	return h.alloc(c, c.NumSlots, txrec.MakeShared(1))
}

// NewArray allocates an array of n elements. elemRef selects reference
// element type.
func (h *Heap) NewArray(n int, elemRef bool) *Object {
	cls := h.arrayCls[0]
	if elemRef {
		cls = h.arrayCls[1]
	}
	return h.allocAt(cls, n, h.manifestSite())
}

// allocAt allocates an object of class c with n slots, born in the state
// that AllocPrivate and the manifest site of its allocation (nil if none)
// pick, and tells the allocation observers of a matched site.
func (h *Heap) allocAt(c *Class, n int, site *ManifestSite) *Object {
	word := txrec.MakeShared(1)
	if h.AllocPrivate || site != nil && site.Class.Elidable() {
		word = txrec.PrivateWord
	}
	o := h.alloc(c, n, word)
	if site != nil {
		h.notifyAlloc(o, site)
	}
	return o
}

// alloc is every allocation: it carves an object of class c with n slots
// from the heap's slab, initialises its record to word, and appends it to
// the handle table. The object is published by the store of the new count,
// after everything a reader of the table loads from it is written; the
// table itself is republished only when it doubles.
func (h *Heap) alloc(c *Class, n int, word txrec.Word) *Object {
	var slots []atomic.Uint64
	if uint(n) > inlineSlots { // a negative n panics here, before the lock
		slots = make([]atomic.Uint64, n)
	}
	h.mu.Lock()
	i := h.n.Load()
	if len(h.slab) == 0 {
		h.slab = make([]Object, min(max(int(i), minSlab), maxSlab))
	}
	o := &h.slab[0]
	h.slab = h.slab[1:]
	if slots == nil {
		slots = o.inline[:n]
	}
	o.Class, o.Slots = c, slots
	if c.Kind == KindArray {
		o.Len = n
	}
	o.Rec.Init(word)
	tbl := h.table.Load()
	if int(i) == len(*tbl) {
		grown := make([]*Object, 2*len(*tbl))
		copy(grown, *tbl)
		tbl = &grown
		h.table.Store(tbl)
	}
	(*tbl)[i] = o
	o.ref = Ref(i + 1) // handle = index+1; 0 stays null
	h.n.Store(i + 1)
	h.mu.Unlock()
	return o
}

// Get resolves a handle to its object. Resolving Null or an out-of-range
// handle panics: the type-checked front end never emits such accesses, so
// reaching one indicates VM corruption (or a deliberate null-dereference,
// which the VM catches and reports as a runtime error).
func (h *Heap) Get(r Ref) *Object {
	if r == Null {
		panic(ErrNullDeref)
	}
	n := h.n.Load() // before the table: a table loaded after it holds n objects
	return (*h.table.Load())[:n][r-1]
}

// TryGet resolves a handle, returning nil for Null.
func (h *Heap) TryGet(r Ref) *Object {
	if r == Null {
		return nil
	}
	return h.Get(r)
}

// Len returns the number of allocated objects.
func (h *Heap) Len() int { return int(h.n.Load()) }

// ErrNullDeref is the panic value raised on null dereference.
var ErrNullDeref = fmt.Errorf("null dereference")

// Publish implements the publishObject algorithm of Figure 11: mark the
// object public, then traverse the graph of private objects reachable from
// it via reference slots, marking each public, using an explicit mark stack.
//
// The traversal terminates for the reasons the paper gives: the graph of
// private objects reachable from the root is finite and fixed (the object
// is still private, so no other thread can extend it), no private objects
// are reachable through public objects, and each private object is marked
// public as soon as it is encountered so cycles are cut.
//
// Publish must only be called by the one thread that can see the (still
// private) object.
func (h *Heap) Publish(o *Object) {
	h.Published.Add(1)
	if !txrec.IsPrivate(o.Rec.Load()) {
		return
	}
	o.Rec.Publish()
	h.PublishedObjects.Add(1)
	stack := []*Object{o}
	for len(stack) > 0 {
		obj := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if obj.Class.Kind == KindArray {
			if !obj.Class.ElemIsRef {
				continue
			}
			for i := 0; i < obj.Len; i++ {
				stack = h.publishSlot(obj, i, stack)
			}
			continue
		}
		for _, s := range obj.Class.RefSlots {
			stack = h.publishSlot(obj, s, stack)
		}
	}
}

func (h *Heap) publishSlot(obj *Object, slot int, stack []*Object) []*Object {
	r := Ref(obj.Slots[slot].Load())
	if r == Null {
		return stack
	}
	child := h.Get(r)
	if txrec.IsPrivate(child.Rec.Load()) {
		child.Rec.Publish()
		h.PublishedObjects.Add(1)
		stack = append(stack, child)
	}
	return stack
}

// PublishRef is Publish for a handle; it ignores Null.
func (h *Heap) PublishRef(r Ref) {
	if r == Null {
		return
	}
	h.Publish(h.Get(r))
}
