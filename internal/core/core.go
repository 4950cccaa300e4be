// Package core is the front door of the reproduction: it assembles the
// paper's system, one STM plus the non-transactional barriers that match
// it, in the style of Shpeisman et al., "Enforcing Isolation and Ordering in
// STM" (PLDI 2007).
//
// A System is a managed heap, one runtime from the stmapi registry, and the
// barriers that pair with that runtime's versioning. Go code uses it
// directly: define classes, allocate objects, run atomic blocks, and
// perform non-transactional accesses that are isolated from transactions by
// the paper's read/write barriers (strong atomicity). The TJ virtual
// machine (internal/vm), the litmus harness (internal/litmus) and the
// containers (internal/containers) are built on it too, so which
// combinations of runtime, atomicity, escape analysis and granularity make
// a system is decided here and nowhere else.
package core

import (
	"fmt"

	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/strong"

	// The registry holds whatever runtimes the binary links; a System can be
	// asked for any of them, so all of them are linked here.
	_ "repro/internal/lazystm"
	_ "repro/internal/mvstm"
	_ "repro/internal/stm"
)

// Config parameterizes a System: what stmapi.New takes, plus the atomicity.
type Config struct {
	// CommonConfig is the runtime's configuration. Granularity 2 reproduces
	// the Section 2.4 anomalies under weak atomicity; Quiescence enables the
	// Section 3.4 privatization mechanism.
	stmapi.CommonConfig

	// Versioning is the runtime's stmapi registry name: "eager" (the
	// paper's system, and what "" means), "lazy" or "mvstm".
	Versioning string

	// Strong enables the non-transactional isolation barriers. Without it
	// the system is weakly atomic and exhibits the Section 2 anomalies.
	Strong bool

	// DEA enables dynamic escape analysis: objects are born private and
	// barriers on private objects skip synchronization (Section 4).
	// Requires Strong and eager versioning.
	DEA bool
}

// readBarrier is the non-transactional read barrier a System runs, chosen
// once in NewSystem.
type readBarrier uint8

const (
	readDirect   readBarrier = iota // weak atomicity: a plain load
	readIsolated                    // Figure 9a
	readOrdering                    // Section 3.3
)

// pairing names the read barrier that makes each versioning strongly
// atomic; the write barrier is Figure 9b for all of them. Eager versioning
// writes in place, so a read must detect a transactional owner. Lazy
// versioning has no dirty data in memory and only has to order the read
// after a committed transaction's write-back. The multi-version runtime
// has no entry: non-transactional writes bypass its version chains, so no
// barrier here makes it strongly atomic.
var pairing = map[string]readBarrier{
	"eager": readIsolated,
	"lazy":  readOrdering,
}

// System is a ready-to-use STM over a managed heap, with the
// non-transactional barriers that match it.
type System struct {
	Heap     *objmodel.Heap
	RT       stmapi.Runtime
	Barriers *strong.Barriers

	read readBarrier
}

// NewSystem builds a System from cfg. The legality rules:
//
//   - an unregistered Versioning is stmapi.New's error;
//   - Strong needs a runtime with a barrier pairing (eager or lazy);
//   - DEA needs Strong and eager versioning (Section 4 relies on Figure 10's
//     barriers, which are the eager ones);
//   - a strongly atomic lazy system buffers field-granular whatever
//     Granularity asks for: Section 2.4 shows a coarser buffer manufactures
//     writes the barriers cannot order.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Versioning == "" {
		cfg.Versioning = "eager"
	}
	read, paired := readDirect, true
	if cfg.Strong {
		read, paired = pairing[cfg.Versioning]
	}
	if read == readOrdering {
		cfg.Granularity = 1
	}
	h := objmodel.NewHeap()
	h.AllocPrivate = cfg.DEA
	rt, err := stmapi.New(cfg.Versioning, h, cfg.CommonConfig)
	switch {
	case err != nil:
		return nil, err
	case !paired:
		return nil, fmt.Errorf("core: no barriers make the %q runtime strongly atomic", cfg.Versioning)
	case cfg.DEA && read != readIsolated:
		return nil, fmt.Errorf("core: DEA requires strong atomicity with eager versioning")
	}
	return &System{
		Heap:     h,
		RT:       rt,
		Barriers: strong.New(h, cfg.DEA),
		read:     read,
	}, nil
}

// MustNewSystem is NewSystem, panicking on configuration errors.
func MustNewSystem(cfg Config) *System {
	s, err := NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Field declares one field of a class.
type Field = objmodel.Field

// Class is an object layout.
type Class = objmodel.Class

// Obj is a managed object handle.
type Obj = *objmodel.Object

// ObjRef is a word-sized reference to a managed object (0 is null), as
// stored in reference slots.
type ObjRef = objmodel.Ref

// DefineClass registers a class with the given fields.
func (s *System) DefineClass(name string, fields ...Field) (*Class, error) {
	return s.Heap.DefineClass(objmodel.ClassSpec{Name: name, Fields: fields})
}

// New allocates an object (private under DEA, shared otherwise).
func (s *System) New(c *Class) Obj { return s.Heap.New(c) }

// NewArray allocates an array of n scalar or reference elements.
func (s *System) NewArray(n int, refs bool) Obj { return s.Heap.NewArray(n, refs) }

// Tx is the transactional access interface inside Atomic.
type Tx = stmapi.Txn

// Atomic executes body as a transaction on the system's runtime,
// re-executing until it commits. Returning an error aborts (rolls back)
// and propagates the error.
func (s *System) Atomic(body func(tx Tx) error) error { return s.RT.Atomic(body) }

// Read performs a non-transactional read: through the Figure 9a isolation
// barrier under strong atomicity (the Section 3.3 ordering barrier for lazy
// versioning), or directly under weak atomicity.
func (s *System) Read(o Obj, slot int) uint64 {
	switch s.read {
	case readIsolated:
		return s.Barriers.Read(o, slot)
	case readOrdering:
		return s.Barriers.ReadOrdering(o, slot)
	default:
		return o.LoadSlot(slot)
	}
}

// Write performs a non-transactional write: through the Figure 9b barrier
// under strong atomicity, or directly under weak atomicity.
func (s *System) Write(o Obj, slot int, v uint64) {
	if s.read == readDirect {
		o.StoreSlot(slot, v)
		return
	}
	s.Barriers.Write(o, slot, v)
}

// ReadRef and WriteRef are the reference-slot variants.
func (s *System) ReadRef(o Obj, slot int) objmodel.Ref {
	return objmodel.Ref(s.Read(o, slot))
}

// WriteRef writes a reference through the non-transactional barrier,
// publishing the referenced private subgraph under DEA.
func (s *System) WriteRef(o Obj, slot int, r objmodel.Ref) {
	s.Write(o, slot, uint64(r))
}

// Deref resolves a reference to its object.
func (s *System) Deref(r objmodel.Ref) Obj { return s.Heap.Get(r) }
