// Package core is the public face of the reproduction: a strongly-atomic
// software transactional memory system in the style of Shpeisman et al.,
// "Enforcing Isolation and Ordering in STM" (PLDI 2007).
//
// It bundles the two ways to use the system:
//
//   - As a Go-hosted STM: define classes, allocate objects, run atomic
//     blocks, and perform non-transactional accesses that are nonetheless
//     isolated from transactions by the paper's read/write barriers
//     (strong atomicity). See System.
//
//   - As a language runtime: compile TJ programs (a small Java-like
//     language with atomic blocks) through the barrier-inserting and
//     barrier-optimizing JIT pipeline and execute them on the multithreaded
//     VM. See Compile and Program.
package core

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/lang/ir"
	"repro/internal/lazystm"
	"repro/internal/objmodel"
	"repro/internal/opt"
	"repro/internal/stm"
	"repro/internal/stmapi"
	"repro/internal/strong"
	"repro/internal/tj"
	"repro/internal/vm"
)

// Versioning selects the STM's write-management policy.
type Versioning = vm.Versioning

// Versioning policies.
const (
	Eager = vm.Eager // in-place update + undo log (the paper's system)
	Lazy  = vm.Lazy  // private write buffers, write-back after commit
)

// Config parameterizes a System or a compiled Program.
type Config struct {
	// Versioning selects eager (default, the paper's) or lazy.
	Versioning Versioning

	// Strong enables the non-transactional isolation barriers. Without it
	// the system is weakly atomic and exhibits the Section 2 anomalies.
	Strong bool

	// DEA enables dynamic escape analysis: objects are born private and
	// barriers on private objects skip synchronization (Section 4).
	// Requires Strong and Eager.
	DEA bool

	// OptLevel selects the barrier-optimization pipeline for compiled
	// programs (Section 5–6): NoOpts, BarrierElim, +Aggregate, +DEA,
	// +WholeProg.
	OptLevel opt.Level

	// Granularity is the undo-log/write-buffer granularity in slots
	// (default 1; 2 reproduces the Section 2.4 anomalies under weak
	// atomicity).
	Granularity int

	// Quiescence enables the Section 3.4 privatization mechanism.
	Quiescence bool

	// Seed makes rand() deterministic in compiled programs.
	Seed int64
}

func (c Config) granularity() int {
	if c.Granularity == 0 {
		return 1
	}
	return c.Granularity
}

// ---- Go-hosted system ----

// System is a ready-to-use strongly-atomic STM over a managed heap.
type System struct {
	Heap     *objmodel.Heap
	Eager    *stm.Runtime
	Lazy     *lazystm.Runtime
	Barriers *strong.Barriers

	cfg Config
}

// NewSystem builds a System from cfg.
func NewSystem(cfg Config) (*System, error) {
	if cfg.DEA && (!cfg.Strong || cfg.Versioning != Eager) {
		return nil, fmt.Errorf("core: DEA requires Strong atomicity with Eager versioning")
	}
	h := objmodel.NewHeap()
	h.AllocPrivate = cfg.DEA
	s := &System{
		Heap: h,
		Eager: stm.New(h, stm.Config{
			CommonConfig: stmapi.CommonConfig{
				Granularity: cfg.granularity(),
				Quiescence:  cfg.Quiescence && cfg.Versioning == Eager,
			},
		}),
		Lazy: lazystm.New(h, lazystm.Config{
			CommonConfig: stmapi.CommonConfig{
				Granularity: cfg.granularity(),
				Quiescence:  cfg.Quiescence && cfg.Versioning == Lazy,
			},
		}),
		Barriers: strong.New(h, cfg.DEA),
		cfg:      cfg,
	}
	return s, nil
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
type Tx interface {
	Read(o Obj, slot int) uint64
	Write(o Obj, slot int, v uint64)
	ReadRef(o Obj, slot int) objmodel.Ref
	WriteRef(o Obj, slot int, r objmodel.Ref)
	Retry()
	Restart()
}

// Atomic executes body as a transaction under the configured STM,
// re-executing until it commits. Returning an error aborts (rolls back)
// and propagates the error.
func (s *System) Atomic(body func(tx Tx) error) error {
	if s.cfg.Versioning == Lazy {
		return s.Lazy.Atomic(nil, func(tx *lazystm.Txn) error { return body(tx) })
	}
	return s.Eager.Atomic(nil, func(tx *stm.Txn) error { return body(tx) })
}

// AtomicOpen runs body as an open-nested transaction (eager versioning
// only): it commits (or aborts) immediately and independently of any
// enclosing transaction. If parent is a transaction from an enclosing
// Atomic and the open-nested transaction commits, compensation (if
// non-nil) is registered to run should the parent later abort.
func (s *System) AtomicOpen(parent Tx, body func(tx Tx) error, compensation func()) error {
	if s.cfg.Versioning == Lazy {
		return fmt.Errorf("core: open nesting requires eager versioning")
	}
	var ptx *stm.Txn
	if parent != nil {
		p, ok := parent.(*stm.Txn)
		if !ok {
			return fmt.Errorf("core: parent is not an eager transaction")
		}
		ptx = p
	}
	return s.Eager.AtomicOpen(ptx, func(tx *stm.Txn) error { return body(tx) }, compensation)
}

// Read performs a non-transactional read: through the Figure 9a isolation
// barrier under strong atomicity (the Section 3.3 ordering barrier for lazy
// versioning), or directly under weak atomicity.
func (s *System) Read(o Obj, slot int) uint64 {
	if !s.cfg.Strong {
		return o.LoadSlot(slot)
	}
	if s.cfg.Versioning == Lazy {
		return s.Barriers.ReadOrdering(o, slot)
	}
	return s.Barriers.Read(o, slot)
}

// Write performs a non-transactional write: through the Figure 9b barrier
// under strong atomicity, or directly under weak atomicity.
func (s *System) Write(o Obj, slot int, v uint64) {
	if !s.cfg.Strong {
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

// ---- Compiled TJ programs ----

// Program is a compiled TJ program plus its optimization report.
type Program struct {
	IR     *ir.Program
	Report *opt.Report
	cfg    Config
}

// Compile compiles TJ source through the full pipeline at cfg.OptLevel.
func Compile(src string, cfg Config) (*Program, error) {
	prog, rep, err := tj.CompileLevel(src, cfg.OptLevel, cfg.granularity())
	if err != nil {
		return nil, err
	}
	return &Program{IR: prog, Report: rep, cfg: cfg}, nil
}

// RunResult carries a program execution's output and statistics.
type RunResult struct {
	Output   string
	Executed int64 // interpreted instructions
	Commits  int64 // committed transactions (eager + lazy)
	Aborts   int64
}

// Run executes the program with the given arguments and returns its output.
func (p *Program) Run(args ...int64) (*RunResult, error) {
	return p.RunMode(p.Mode(args...))
}

// Mode builds the vm.Mode this program's Config implies.
func (p *Program) Mode(args ...int64) vm.Mode {
	return vm.Mode{
		Sync:        vm.SyncSTM,
		Versioning:  p.cfg.Versioning,
		Strong:      p.cfg.Strong,
		DEA:         p.cfg.DEA || p.cfg.OptLevel.DEAEnabled() && p.cfg.Strong,
		Quiescence:  p.cfg.Quiescence,
		Granularity: p.cfg.granularity(),
		Seed:        p.cfg.Seed,
		Args:        args,
	}
}

// RunMode executes with full control over the vm.Mode.
func (p *Program) RunMode(mode vm.Mode) (*RunResult, error) {
	var out strings.Builder
	m, err := vm.New(p.IR, mode, &out)
	if err != nil {
		return nil, err
	}
	if err := m.Run(); err != nil {
		return nil, err
	}
	return &RunResult{
		Output:   strings.TrimSpace(out.String()),
		Executed: m.Executed.Load(),
		Commits:  m.Eager.Stats.Commits.Load() + m.Lazy.Stats.Commits.Load(),
		Aborts:   m.Eager.Stats.Aborts.Load() + m.Lazy.Stats.Aborts.Load(),
	}, nil
}

// RunTo executes writing output to w (for CLI tools).
func (p *Program) RunTo(w io.Writer, mode vm.Mode) error {
	m, err := vm.New(p.IR, mode, w)
	if err != nil {
		return err
	}
	return m.Run()
}

// DisassembleMethod renders a compiled method's IR with barrier
// annotations, or an error note if missing.
func (p *Program) DisassembleMethod(name string) string {
	for _, m := range p.IR.Methods {
		if m.Name == name {
			return m.String()
		}
	}
	return fmt.Sprintf("; no method %q\n", name)
}
