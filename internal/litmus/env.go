// Package litmus contains executable versions of the weak-atomicity anomaly
// programs of Section 2 of the paper (Figures 1–5) and reproduces the
// Figure 6 matrix: for each anomaly and each execution regime — eager
// versioning, lazy versioning, multi-version/snapshot isolation,
// lock-based critical sections, and the paper's strongly-atomic system —
// whether the anomaly can be observed.
//
// Each program orchestrates the paper's interleaving with channel handoffs.
// Handoffs that a strongly-atomic regime intentionally blocks (a barrier
// waiting on a transaction's record) use a bounded wait, so every program
// terminates in every regime: if the partner thread cannot make progress
// inside the window, the window simply closes and the anomaly is not
// observed — which is exactly the strong-atomicity guarantee under test.
package litmus

import (
	"context"
	"sync"
	"time"

	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/trace"
)

// Mode is an execution regime from the Figure 6 columns.
type Mode int

// The Figure 6 columns. Strong is the paper's system: eager versioning plus
// non-transactional isolation barriers. StrongLazy is the Section 3.3
// variant: lazy versioning, field-granular buffering, ordering read
// barriers and full write barriers; it is not a Figure 6 column but must
// also exhibit no anomalies. MVWeak is the multi-version/snapshot-isolation
// runtime (internal/mvstm) run weakly atomic: also not a paper column, but
// it extends the matrix with the SI regime — write skew is admitted, while
// the eager- and lazy-only anomalies close because readers never observe
// speculative or partially-written state.
const (
	EagerWeak Mode = iota
	LazyWeak
	Locks
	Strong
	StrongLazy
	MVWeak
)

// AllModes lists the regimes in Figure 6 column order (the MV/SI column
// after lazy), then Strong variants last.
var AllModes = []Mode{EagerWeak, LazyWeak, MVWeak, Locks, Strong, StrongLazy}

func (m Mode) String() string {
	switch m {
	case EagerWeak:
		return "eager"
	case LazyWeak:
		return "lazy"
	case Locks:
		return "locks"
	case Strong:
		return "strong"
	case StrongLazy:
		return "strong-lazy"
	case MVWeak:
		return "mvstm"
	default:
		return "?"
	}
}

// handoffTimeout bounds waits that a strongly-atomic regime may block.
const handoffTimeout = 2 * time.Millisecond

// waitOrTimeout waits for ch or the bounded handoff window.
func waitOrTimeout(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	case <-time.After(handoffTimeout):
		return false
	}
}

// windowWait picks how an environment's trace sink should block while
// keeping a commit-point or write-back window open for a probing thread. In
// the weak modes the probe's plain accesses never block, so the probe always
// arrives and the wait can be generous — only a liveness backstop, and
// necessarily far above the handoff window because under -race on a loaded
// machine the prober can take much longer than that to run its transactions
// (a premature release lets write-back race ahead of the probe: a flaky
// "anomaly not observed"). In the strong modes the probe's NT barriers block
// on the very records the paused committer still owns, so the tight handoff
// timeout is what breaks that circular wait — those modes must keep it.
func windowWait(mode Mode) func(<-chan struct{}) {
	switch mode {
	case Strong, StrongLazy:
		return func(ch <-chan struct{}) { waitOrTimeout(ch) }
	default:
		return func(ch <-chan struct{}) {
			select {
			case <-ch:
			case <-time.After(100 * handoffTimeout):
			}
		}
	}
}

// systems maps each regime to the core.System it runs on. Locks runs its
// critical sections under Env's own lock and leaves the runtime idle.
var systems = map[Mode]core.Config{
	EagerWeak:  {Versioning: "eager"},
	LazyWeak:   {Versioning: "lazy"},
	MVWeak:     {Versioning: "mvstm"},
	Locks:      {Versioning: "eager"},
	Strong:     {Versioning: "eager", Strong: true},
	StrongLazy: {Versioning: "lazy", Strong: true},
}

// Env is one fresh execution environment: the system matching the mode.
// Every litmus trial builds a new Env so trials are independent.
type Env struct {
	Mode Mode
	Heap *objmodel.Heap

	sys  *core.System
	lock sync.Mutex // Locks mode: the single lock of the original programs

	cell *objmodel.Class
}

// defaultPolicy is the contention policy an Env runs under when
// EnvConfig.Policy is empty ("" is conflict.ByName's default, backoff). The
// package's tests set it to sweep the whole suite per policy without
// plumbing a name through every program.
var defaultPolicy string

// EnvConfig selects variation points for an Env.
type EnvConfig struct {
	// Granularity is the undo-log / write-buffer granularity in slots.
	// Strong keeps the requested granularity (object-level records hide
	// it); StrongLazy runs at 1 whatever is asked (core.NewSystem,
	// Section 2.4).
	Granularity int

	// Policy names the contention policy (conflict.ByName); empty means
	// the package default, backoff.
	Policy string

	// Sink, when set, observes the environment's one event stream: NewEnv
	// installs it on a tracer given to the runtime and the barriers. The MI
	// programs hold the commit window of the regimes that have one
	// (lazyCommitWindow) by blocking on its trace.EvCommitPoint or
	// trace.EvWriteBack. Nil leaves the environment untraced.
	Sink trace.Sink
}

// NewEnv builds an environment for the given regime.
func NewEnv(mode Mode, cfg EnvConfig) *Env {
	if cfg.Policy == "" {
		cfg.Policy = defaultPolicy
	}
	pol, err := conflict.ByName(cfg.Policy)
	if err != nil {
		panic("litmus: " + err.Error())
	}
	sc := systems[mode]
	sc.CommonConfig = stmapi.CommonConfig{Granularity: cfg.Granularity, Handler: pol}
	sys := core.MustNewSystem(sc)
	if cfg.Sink != nil {
		tr := trace.New(trace.Config{Shards: 1, ShardCapacity: 64}) // the sink is the reader
		tr.SetSink(cfg.Sink)
		sys.RT.SetTracer(tr)
		sys.Barriers.Tracer = tr
	}
	e := &Env{Mode: mode, Heap: sys.Heap, sys: sys}
	e.cell = e.Heap.MustDefineClass(objmodel.ClassSpec{
		Name: "Cell",
		Fields: []objmodel.Field{
			{Name: "f"}, {Name: "g"}, {Name: "h"},
			{Name: "ref", IsRef: true},
		},
	})
	return e
}

// NewCell allocates a fresh 4-slot object (f, g, h scalar; ref reference).
func (e *Env) NewCell() *objmodel.Object { return e.Heap.New(e.cell) }

// Slot indexes in the Cell class.
const (
	SlotF = iota
	SlotG
	SlotH
	SlotRef
)

// Accessor is the uniform transactional access interface the litmus bodies
// are written against.
type Accessor interface {
	Read(o *objmodel.Object, slot int) uint64
	Write(o *objmodel.Object, slot int, v uint64)
	// Attempt is the 0-based execution attempt of the atomic body.
	Attempt() int
	// Restart re-executes the body: a rollback-and-retry under either STM,
	// and a plain re-execution (no rollback — locks cannot undo) under
	// Locks, which is how a lock programmer would express a retry loop.
	Restart()
}

// stmAccessor adapts a runtime's transaction to Accessor.
type stmAccessor struct {
	tx stmapi.Txn
}

func (a *stmAccessor) Read(o *objmodel.Object, slot int) uint64     { return a.tx.Read(o, slot) }
func (a *stmAccessor) Write(o *objmodel.Object, slot int, v uint64) { a.tx.Write(o, slot, v) }
func (a *stmAccessor) Attempt() int                                 { return a.tx.Attempt() }
func (a *stmAccessor) Restart()                                     { a.tx.Restart() }

type locksRestart struct{}

type locksAccessor struct {
	attempt int
}

func (a *locksAccessor) Read(o *objmodel.Object, slot int) uint64     { return o.LoadSlot(slot) }
func (a *locksAccessor) Write(o *objmodel.Object, slot int, v uint64) { o.StoreSlot(slot, v) }
func (a *locksAccessor) Attempt() int                                 { return a.attempt }
func (a *locksAccessor) Restart()                                     { panic(locksRestart{}) }

// Atomic runs body as an atomic block in the environment's regime.
func (e *Env) Atomic(body func(a Accessor) error) error {
	return e.AtomicCtx(nil, body)
}

// AtomicCtx is Atomic under a cancellation context (nil behaves like
// Atomic). The Locks regime has no cancellation points and ignores ctx once
// the lock is held.
func (e *Env) AtomicCtx(ctx context.Context, body func(a Accessor) error) error {
	switch e.Mode {
	case EagerWeak, Strong, LazyWeak, StrongLazy, MVWeak:
		if ctx == nil {
			return e.sys.RT.Atomic(func(tx stmapi.Txn) error {
				return body(&stmAccessor{tx})
			})
		}
		return e.sys.RT.AtomicCtx(ctx, func(tx stmapi.Txn) error {
			return body(&stmAccessor{tx})
		})
	case Locks:
		e.lock.Lock()
		defer e.lock.Unlock()
		for attempt := 0; ; attempt++ {
			err, restarted := runLocksBody(body, attempt)
			if !restarted {
				return err
			}
		}
	}
	panic("litmus: unknown mode")
}

func runLocksBody(body func(a Accessor) error, attempt int) (err error, restarted bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(locksRestart); ok {
				restarted = true
				return
			}
			panic(r)
		}
	}()
	return body(&locksAccessor{attempt: attempt}), false
}

// NTRead performs a non-transactional read in the environment's regime:
// direct under the weak and lock regimes, through the isolation barrier of
// Figure 9a under Strong, and through the Section 3.3 ordering barrier
// under StrongLazy.
func (e *Env) NTRead(o *objmodel.Object, slot int) uint64 { return e.sys.Read(o, slot) }

// NTWrite performs a non-transactional write: direct under the weak and
// lock regimes, through the Figure 9b write barrier under both strong
// regimes.
func (e *Env) NTWrite(o *objmodel.Object, slot int, v uint64) { e.sys.Write(o, slot, v) }
