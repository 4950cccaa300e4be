// Package vm executes compiled TJ programs on the managed runtime: a
// register-machine interpreter whose threads are goroutines, whose objects
// live in the objmodel heap, and whose atomic blocks run on the runtime of
// a core.System (eager, McRT-style, is the paper's). It is the execution
// half of our JIT: the barrier annotations computed by lowering and the opt
// passes decide, at each non-transactional access, whether the System's
// Figure 9/10 isolation barriers run.
//
// Modes reproduce the paper's experimental configurations:
//
//   - Synch:       atomic blocks execute under one global lock.
//   - WeakEager:   transactions on the eager STM; plain accesses direct.
//   - WeakLazy:    transactions on the lazy STM; plain accesses direct.
//   - StrongEager: eager STM plus non-transactional isolation barriers,
//     optionally with dynamic escape analysis (the paper's system).
//   - StrongLazy:  lazy STM plus ordering read barriers (Section 3.3).
//
// Which of these are legal, and any other registered runtime run weakly
// atomic, is core.NewSystem's decision; the VM adds only that lock mode has
// no barriers.
package vm

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/lang/ir"
	"repro/internal/lang/types"
	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/strong"
)

// Sync discipline for atomic blocks.
type Sync uint8

// Atomic-block execution disciplines.
const (
	SyncLock Sync = iota // one global lock (the paper's Synch configuration)
	SyncSTM              // software transactional memory
)

// Versioning selects the STM flavor: an stmapi registry name (the zero
// value is core's default, eager).
type Versioning string

// STM versioning policies.
const (
	Eager Versioning = "eager"
	Lazy  Versioning = "lazy"
)

// BarrierSelect restricts which isolation barriers execute, for the
// paper's Figure 16 (read barriers only) and Figure 17 (write barriers
// only) overhead decompositions. These are measurement configurations:
// only BarrierAll provides strong atomicity.
type BarrierSelect uint8

// Barrier selections.
const (
	BarrierAll BarrierSelect = iota
	BarrierReadsOnly
	BarrierWritesOnly
)

// Mode configures a VM.
type Mode struct {
	Sync        Sync
	Versioning  Versioning
	Strong      bool          // insert non-transactional isolation barriers
	Barriers    BarrierSelect // which barriers execute (measurement only)
	DEA         bool          // dynamic escape analysis (requires Strong + Eager)
	Quiescence  bool
	Granularity int     // undo/buffer granularity in slots (default 1)
	Seed        int64   // deterministic per-thread RNG seed base
	Args        []int64 // program arguments, read by the arg(i) builtin

	// CountBarriers attaches barrier statistics (small runtime cost).
	CountBarriers bool
}

// VM is a loaded program plus runtime state.
type VM struct {
	Prog *ir.Program
	Mode Mode

	// The core.System the program runs on, and its heap, runtime (idle in
	// lock mode) and barriers.
	sys  *core.System
	Heap *objmodel.Heap
	RT   stmapi.Runtime
	Bar  *strong.Barriers

	classes    []*objmodel.Class  // indexed by types.Class.ID
	statics    []*objmodel.Object // statics holder per class
	typeByRT   map[*objmodel.Class]*types.Class
	globalLock sync.Mutex

	out   io.Writer
	outMu sync.Mutex

	nextTid atomic.Int64
	threads sync.Map // tid -> *threadHandle
	wg      sync.WaitGroup

	errMu    sync.Mutex
	firstErr error

	// Executed counts interpreted instructions (all threads).
	Executed atomic.Int64
	// Prints counts print() calls.
	Prints atomic.Int64
}

type threadHandle struct {
	done chan struct{}
}

// RuntimeError is a TJ-program runtime failure (null dereference, index out
// of range, division by zero).
type RuntimeError struct {
	Msg string
}

func (e *RuntimeError) Error() string { return "runtime error: " + e.Msg }

func throw(format string, args ...any) {
	panic(&RuntimeError{Msg: fmt.Sprintf(format, args...)})
}

// New loads prog into a fresh VM.
func New(prog *ir.Program, mode Mode, out io.Writer) (*VM, error) {
	if mode.Sync == SyncLock && (mode.Strong || mode.DEA) {
		return nil, fmt.Errorf("vm: barriers are an STM feature; lock mode is weak by construction")
	}
	sys, err := core.NewSystem(core.Config{
		CommonConfig: stmapi.CommonConfig{Granularity: mode.Granularity, Quiescence: mode.Quiescence},
		Versioning:   string(mode.Versioning),
		Strong:       mode.Strong,
		DEA:          mode.DEA,
	})
	if err != nil {
		return nil, err
	}
	heap := sys.Heap
	v := &VM{
		Prog:     prog,
		Mode:     mode,
		sys:      sys,
		Heap:     heap,
		RT:       sys.RT,
		Bar:      sys.Barriers,
		out:      out,
		typeByRT: make(map[*objmodel.Class]*types.Class),
	}
	if mode.CountBarriers {
		v.Bar.Stats = &strong.Stats{}
	}

	// Materialize runtime classes and statics holders. types.Class.Fields
	// is already flattened, so runtime classes carry no Super.
	v.classes = make([]*objmodel.Class, len(prog.Types.Classes))
	v.statics = make([]*objmodel.Object, len(prog.Types.Classes))
	for _, tc := range prog.Types.Classes {
		fields := make([]objmodel.Field, len(tc.Fields))
		for i, f := range tc.Fields {
			fields[i] = objmodel.Field{Name: f.Name, IsRef: f.Type.IsRef(),
				Final: f.Final, Volatile: f.Volatile}
		}
		rc := heap.MustDefineClass(objmodel.ClassSpec{Name: tc.Name, Fields: fields})
		v.classes[tc.ID] = rc
		v.typeByRT[rc] = tc

		sfields := make([]objmodel.Field, len(tc.Statics))
		for i, f := range tc.Statics {
			sfields[i] = objmodel.Field{Name: f.Name, IsRef: f.Type.IsRef(),
				Final: f.Final, Volatile: f.Volatile}
		}
		sc := heap.MustDefineClass(objmodel.ClassSpec{
			Name: tc.Name + ".<statics>", Fields: sfields, Kind: objmodel.KindStatics})
		// Static data is visible to multiple threads from the start
		// (Section 7 explains mpegaudio's static arrays defeat DEA).
		v.statics[tc.ID] = heap.NewPublic(sc)
	}
	return v, nil
}

// Statics returns the statics holder for a class (tests and experiments).
func (v *VM) Statics(tc *types.Class) *objmodel.Object { return v.statics[tc.ID] }

func (v *VM) recordErr(err error) {
	v.errMu.Lock()
	if v.firstErr == nil {
		v.firstErr = err
	}
	v.errMu.Unlock()
}

// Run executes the program: static initializers in declaration order, then
// Main.main, then waits for all spawned threads.
func (v *VM) Run() error {
	main := &thread{vm: v, id: v.nextTid.Add(1)}
	main.rng = uint64(v.Mode.Seed)*2862933555777941757 + 3037000493
	err := main.protect(func() {
		for _, init := range v.Prog.Inits {
			main.invoke(init, nil)
		}
		v.invokeMain(main)
	})
	v.Executed.Add(main.executed)
	if err != nil {
		v.recordErr(err)
	}
	v.wg.Wait()
	v.errMu.Lock()
	defer v.errMu.Unlock()
	return v.firstErr
}

func (v *VM) invokeMain(t *thread) {
	t.invoke(v.Prog.Main, nil)
}

// protect runs f, converting runtime panics into an error. If the thread
// died inside an aggregated barrier, the held record is released so other
// threads do not block forever.
func (t *thread) protect(f func()) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if t.inAgg {
			t.vm.Bar.Release(t.aggObj, t.aggTok)
			t.inAgg = false
		}
		// Release every monitor the dying thread still holds (one Exit per
		// Enter, innermost first) and the global lock in Synch mode, so the
		// error does not deadlock surviving threads.
		for i := len(t.monitors) - 1; i >= 0; i-- {
			t.monitors[i].Exit(t.id)
		}
		t.monitors = nil
		if t.vm.Mode.Sync == SyncLock && t.txnDepth > 0 {
			t.txnDepth = 0
			t.vm.globalLock.Unlock()
		}
		switch e := r.(type) {
		case *RuntimeError:
			err = e
		case error:
			if e == objmodel.ErrNullDeref {
				err = &RuntimeError{Msg: "null dereference"}
				return
			}
			panic(r)
		default:
			panic(r)
		}
	}()
	f()
	return nil
}
