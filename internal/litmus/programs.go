package litmus

import (
	"sync"
	"sync/atomic"

	"repro/internal/objmodel"
	"repro/internal/trace"
)

// Program is one executable anomaly program from Section 2.
type Program struct {
	ID          string // anomaly abbreviation used in Figure 6
	Figure      string // paper figure showing the program
	Row         string // Figure 6 row: "write/read", "write/write", "read/write"
	Description string

	// Trials is how many independent runs to attempt before declaring the
	// anomaly unobservable in a mode (some anomalies depend on randomized
	// write-back order).
	Trials int

	// Expected is the Figure 6 row for this anomaly (plus the StrongLazy
	// column, which is not in the paper's table but must be anomaly-free).
	Expected map[Mode]bool

	// Run executes one trial and reports whether the anomaly was observed.
	Run func(mode Mode) bool
}

// Observed runs up to p.Trials trials of p under mode and reports whether
// any trial observed the anomaly.
func (p Program) Observed(mode Mode) bool {
	for i := 0; i < p.Trials; i++ {
		if p.Run(mode) {
			return true
		}
	}
	return false
}

func expect(eager, lazy, mv, locks, strong bool) map[Mode]bool {
	return map[Mode]bool{
		EagerWeak:  eager,
		LazyWeak:   lazy,
		MVWeak:     mv,
		Locks:      locks,
		Strong:     strong,
		StrongLazy: false, // the strong-lazy variant must also be clean
	}
}

// lazyCommitWindow reports whether the mode's runtime writes buffered slots
// back after its commit point — the window the MI programs hold open from
// their environment's trace sink. The multi-version runtime buffers and
// write-backs like the lazy one, so it shares the window.
func lazyCommitWindow(mode Mode) bool {
	return mode == LazyWeak || mode == StrongLazy || mode == MVWeak
}

// Programs returns the full anomaly suite in Figure 6 row order.
func Programs() []Program {
	return []Program{
		{
			ID: "NR", Figure: "2a", Row: "write/read",
			Description: "non-repeatable read: two transactional reads straddle a non-transactional write",
			Trials:      3,
			// MV: yes — non-transactional writes bypass the version chains,
			// so the snapshot cannot shield the second read.
			Expected: expect(true, true, true, true, false),
			Run:      runNR,
		},
		{
			ID: "GIR", Figure: "5b", Row: "write/read",
			Description: "granular inconsistent read: a coarse write-buffer span serves a stale adjacent field",
			Trials:      3,
			// MV: no — the multi-version buffer is always slot-granular, so
			// no coarse span ever serves the adjacent field.
			Expected: expect(false, true, false, false, false),
			Run:      runGIR,
		},
		{
			ID: "ILU", Figure: "2b", Row: "write/write",
			Description: "intermediate lost update: a non-transactional write lands between a transactional read and write",
			Trials:      3,
			// MV: yes — the non-transactional write bumps neither the record
			// version nor the clock, so first-committer-wins never fires.
			Expected: expect(true, true, true, true, false),
			Run:      runILU,
		},
		{
			ID: "SLU", Figure: "3a", Row: "write/write",
			Description: "speculative lost update: rollback of an eager transaction erases a non-transactional write",
			Trials:      3,
			// MV: no — writes are buffered; an abort never touches memory.
			Expected: expect(true, false, false, false, false),
			Run:      runSLU,
		},
		{
			ID: "GLU", Figure: "5a", Row: "write/write",
			Description: "granular lost update: a coarse undo-log/write-buffer span rewrites an adjacent field",
			Trials:      3,
			// MV: no — always slot-granular; the neighbour is never written.
			Expected: expect(true, true, false, false, false),
			Run:      runGLU,
		},
		{
			ID: "MI-WW", Figure: "4b/1", Row: "write/write",
			Description: "memory inconsistency: a non-transactional write to privatized data is overwritten by a committed transaction's pending write-back",
			Trials:      3,
			// MV: yes — the multi-version runtime write-backs lazily, so the
			// privatization window of Figure 4 exists for it too.
			Expected: expect(false, true, true, false, false),
			Run:      runMIWW,
		},
		{
			ID: "IDR", Figure: "2c", Row: "read/write",
			Description: "intermediate dirty read: a non-transactional read observes a transaction's intermediate state",
			Trials:      3,
			// MV: no — buffered writes keep intermediate state out of memory.
			Expected: expect(true, false, false, true, false),
			Run:      runIDR,
		},
		{
			ID: "SDR", Figure: "3b", Row: "read/write",
			Description: "speculative dirty read: a non-transactional read observes state that a rollback later erases",
			Trials:      3,
			// MV: no — speculative state never reaches memory.
			Expected: expect(true, false, false, false, false),
			Run:      runSDR,
		},
		{
			ID: "MI-RW", Figure: "4b/1", Row: "read/write",
			Description: "memory inconsistency: non-transactional reads of privatized data race with a committed transaction's write-back",
			Trials:      3,
			// MV: yes — same lazy write-back window as MI-WW.
			Expected: expect(false, true, true, false, false),
			Run:      runMIRW,
		},
		{
			ID: "MI-OW", Figure: "4a", Row: "read/write",
			Description: "memory inconsistency, overlapped writes: unordered write-back publishes a reference before the initializing store",
			Trials:      80,
			// MV: no — mvstm writes back in program order, and the body
			// here initializes the element before it publishes it, so the
			// initializing store always lands first. (The window is not
			// closed in general: a body that publishes first would reorder.
			// The matrix records this program's outcome.)
			Expected: expect(false, true, false, false, false),
			Run:      runMIOW,
		},
		{
			ID: "WS", Figure: "-", Row: "txn/txn",
			Description: "write skew: two snapshot transactions read an invariant over two objects and write disjoint halves of it",
			Trials:      3,
			// The one row only the MV column admits: snapshot isolation has
			// no read validation, and first-committer-wins only compares
			// write sets — which are disjoint here. Every serializable regime
			// (including both weak STMs, whose commit-time validation catches
			// the stale read) forbids it.
			Expected: expect(false, false, true, false, false),
			Run:      runWS,
		},
	}
}

// ---- Figure 2a: non-repeatable reads ----

func runNR(mode Mode) bool {
	e := NewEnv(mode, EnvConfig{})
	x := e.NewCell()
	afterR1 := make(chan struct{})
	t2done := make(chan struct{})
	var once sync.Once
	var r1, r2 uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // Thread 2
		defer wg.Done()
		<-afterR1
		e.NTWrite(x, SlotF, 1)
		close(t2done)
	}()
	_ = e.Atomic(func(a Accessor) error { // Thread 1
		r1 = a.Read(x, SlotF)
		once.Do(func() { close(afterR1) })
		waitOrTimeout(t2done)
		r2 = a.Read(x, SlotF)
		return nil
	})
	wg.Wait()
	return r1 != r2
}

// ---- Figure 2b: intermediate lost updates ----

func runILU(mode Mode) bool {
	e := NewEnv(mode, EnvConfig{})
	x := e.NewCell()
	afterRead := make(chan struct{})
	t2done := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // Thread 2: x = 10
		defer wg.Done()
		<-afterRead
		e.NTWrite(x, SlotF, 10)
		close(t2done)
	}()
	_ = e.Atomic(func(a Accessor) error { // Thread 1: x++
		r := a.Read(x, SlotF)
		once.Do(func() { close(afterRead) })
		waitOrTimeout(t2done)
		a.Write(x, SlotF, r+1)
		return nil
	})
	wg.Wait()
	// Serializable outcomes compose both updates: 10 (txn first) or 11
	// (write first). The lost update leaves 1.
	final := x.LoadSlot(SlotF)
	return final != 10 && final != 11
}

// ---- Figure 2c: intermediate dirty reads ----

func runIDR(mode Mode) bool {
	e := NewEnv(mode, EnvConfig{})
	x := e.NewCell() // invariant: x.f is even outside the transaction
	afterFirst := make(chan struct{})
	t2done := make(chan struct{})
	var once sync.Once
	var r uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // Thread 2: r = x
		defer wg.Done()
		<-afterFirst
		r = e.NTRead(x, SlotF)
		close(t2done)
	}()
	_ = e.Atomic(func(a Accessor) error { // Thread 1: x++; x++
		a.Write(x, SlotF, a.Read(x, SlotF)+1)
		once.Do(func() { close(afterFirst) })
		waitOrTimeout(t2done)
		a.Write(x, SlotF, a.Read(x, SlotF)+1)
		return nil
	})
	wg.Wait()
	return r%2 == 1
}

// ---- Figure 3a: speculative lost updates ----

func runSLU(mode Mode) bool {
	e := NewEnv(mode, EnvConfig{})
	x, y := e.NewCell(), e.NewCell()
	afterWrite := make(chan struct{})
	t2done := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // Thread 2: x = 2; y = 1
		defer wg.Done()
		<-afterWrite
		e.NTWrite(x, SlotF, 2)
		e.NTWrite(y, SlotF, 1)
		close(t2done)
	}()
	_ = e.Atomic(func(a Accessor) error { // Thread 1: atomic { if y==0 then x=1 } /*abort*/
		if a.Read(y, SlotF) == 0 {
			a.Write(x, SlotF, 1)
		}
		if a.Attempt() == 0 {
			once.Do(func() { close(afterWrite) })
			waitOrTimeout(t2done)
			a.Restart()
		}
		return nil
	})
	wg.Wait()
	return x.LoadSlot(SlotF) == 0 // Thread 2's x = 2 vanished
}

// ---- Figure 3b: speculative dirty reads ----

func runSDR(mode Mode) bool {
	e := NewEnv(mode, EnvConfig{})
	x, y := e.NewCell(), e.NewCell()
	afterWrite := make(chan struct{})
	t2done := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // Thread 2: if x==1 then y=1
		defer wg.Done()
		<-afterWrite
		if e.NTRead(x, SlotF) == 1 {
			e.NTWrite(y, SlotF, 1)
		}
		close(t2done)
	}()
	_ = e.Atomic(func(a Accessor) error { // Thread 1: atomic { if y==0 then x=1 } /*abort*/
		if a.Read(y, SlotF) == 0 {
			a.Write(x, SlotF, 1)
		}
		if a.Attempt() == 0 {
			once.Do(func() { close(afterWrite) })
			waitOrTimeout(t2done)
			a.Restart()
		}
		return nil
	})
	wg.Wait()
	// Thread 2 acted on a speculative value that was rolled back.
	return x.LoadSlot(SlotF) == 0 && y.LoadSlot(SlotF) == 1
}

// ---- Write skew: the textbook snapshot-isolation anomaly ----
//
// Two transactions each read the two cells guarding an invariant
// (x.f + y.f <= 1) and, finding it slack, write disjoint cells. A
// serializable system orders them — the second sees the first's write and
// backs off. Snapshot isolation runs both against the same snapshot and
// first-committer-wins only compares write sets, which are disjoint, so
// both commit and the invariant breaks. The two cells MUST be distinct
// objects: mvstm detects write/write conflicts per object, so two writes
// to slots of one object would collide and serialize.

func runWS(mode Mode) bool {
	e := NewEnv(mode, EnvConfig{})
	x, y := e.NewCell(), e.NewCell()
	t1read := make(chan struct{})
	t2read := make(chan struct{})
	var once1, once2 sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // Thread 2: atomic { if x+y == 0 then y = 1 }
		defer wg.Done()
		_ = e.Atomic(func(a Accessor) error {
			sum := a.Read(x, SlotF) + a.Read(y, SlotF)
			once2.Do(func() { close(t2read) })
			waitOrTimeout(t1read)
			if sum == 0 {
				a.Write(y, SlotF, 1)
			}
			return nil
		})
	}()
	_ = e.Atomic(func(a Accessor) error { // Thread 1: atomic { if x+y == 0 then x = 1 }
		sum := a.Read(x, SlotF) + a.Read(y, SlotF)
		once1.Do(func() { close(t1read) })
		waitOrTimeout(t2read)
		if sum == 0 {
			a.Write(x, SlotF, 1)
		}
		return nil
	})
	wg.Wait()
	return x.LoadSlot(SlotF)+y.LoadSlot(SlotF) > 1
}

// ---- Figure 5a: granular lost updates (2-slot versioning granularity) ----

func runGLU(mode Mode) bool {
	return gluTrial(mode, false) || gluTrial(mode, true)
}

// gluTrial exercises the commit path (lazy write-back rewrites the
// neighbour) or the abort path (eager rollback rewrites the neighbour).
func gluTrial(mode Mode, abortPath bool) bool {
	e := NewEnv(mode, EnvConfig{Granularity: 2})
	x := e.NewCell() // f and g share one undo/buffer span
	afterWrite := make(chan struct{})
	t2done := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // Thread 2: x.g = 1
		defer wg.Done()
		<-afterWrite
		e.NTWrite(x, SlotG, 1)
		close(t2done)
	}()
	_ = e.Atomic(func(a Accessor) error { // Thread 1: atomic { x.f = ... }
		a.Write(x, SlotF, 5)
		if a.Attempt() == 0 {
			once.Do(func() { close(afterWrite) })
			waitOrTimeout(t2done)
			if abortPath {
				a.Restart()
			}
		}
		return nil
	})
	wg.Wait()
	return x.LoadSlot(SlotG) == 0 // Thread 2's update to the untouched field vanished
}

// ---- Figure 5b: granular inconsistent reads (2-slot granularity) ----

func runGIR(mode Mode) bool {
	e := NewEnv(mode, EnvConfig{Granularity: 2})
	x, y := e.NewCell(), e.NewCell() // y models the volatile flag
	afterWrite := make(chan struct{})
	t2done := make(chan struct{})
	var once sync.Once
	const sentinel = 111
	var r uint64 = sentinel
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // Thread 2: x.g = 1; y = 1
		defer wg.Done()
		<-afterWrite
		e.NTWrite(x, SlotG, 1)
		e.NTWrite(y, SlotF, 1)
		close(t2done)
	}()
	_ = e.Atomic(func(a Accessor) error { // Thread 1: atomic { x.f=...; if y==1 then r=x.g }
		r = sentinel
		a.Write(x, SlotF, 5)
		once.Do(func() { close(afterWrite) })
		waitOrTimeout(t2done)
		if a.Read(y, SlotF) == 1 {
			r = a.Read(x, SlotG)
		}
		return nil
	})
	wg.Wait()
	// Thread 1 observed y == 1 but a stale x.g — ordering required by the
	// volatile flag is violated.
	return r == 0
}

// ---- Figure 4b / Figure 1: privatization, read/write flavor ----
//
// Thread 2 commits an update to a shared object; Thread 1 privatizes the
// object transactionally and then reads it without barriers. In a lazy STM,
// Thread 2's write-back may still be pending.

type privEnv struct {
	e         *Env
	obj       *objmodel.Object // the Item: val in SlotF
	statics   *objmodel.Object // holder of the shared reference x (SlotRef)
	committed chan struct{}    // Thread 2 passed its commit point
	probed    chan struct{}    // Thread 1 finished probing the window
	t2done    chan struct{}    // Thread 2's Atomic returned (write-back done)
}

func newPrivEnv(mode Mode) *privEnv {
	p := &privEnv{
		committed: make(chan struct{}),
		probed:    make(chan struct{}),
		t2done:    make(chan struct{}),
	}
	// The sink sees every commit point, Thread 1's privatizing commit's
	// too; only the first committer — Thread 2, whose window the program
	// probes — may hold, or the privatizer deadlocks against the probe that
	// runs after it.
	var cfg EnvConfig
	if lazyCommitWindow(mode) {
		wait := windowWait(mode)
		var held atomic.Bool
		cfg.Sink = trace.SinkFunc(func(ev trace.Event) {
			if ev.Kind == trace.EvCommitPoint && held.CompareAndSwap(false, true) {
				close(p.committed)
				wait(p.probed)
			}
		})
	}
	p.e = NewEnv(mode, cfg)
	p.obj = p.e.NewCell()
	p.obj.StoreSlot(SlotF, 1)
	p.statics = p.e.NewCell()
	//stmvet:ignore privatization -- litmus setup before any transaction starts
	p.statics.StoreSlot(SlotRef, uint64(p.obj.Ref()))
	go func() { // Thread 2: atomic { if x != null then x.val++ }
		_ = p.e.Atomic(func(a Accessor) error {
			r := a.Read(p.statics, SlotRef)
			if r != 0 {
				o := p.e.Heap.Get(objmodel.Ref(r))
				a.Write(o, SlotF, a.Read(o, SlotF)+1)
			}
			return nil
		})
		if !lazyCommitWindow(mode) {
			close(p.committed) // no commit window to instrument
		}
		close(p.t2done)
	}()
	return p
}

// privatize runs Thread 1's transaction: r1 = x; x = null.
func (p *privEnv) privatize() *objmodel.Object {
	var ref objmodel.Ref
	_ = p.e.Atomic(func(a Accessor) error {
		ref = objmodel.Ref(a.Read(p.statics, SlotRef))
		a.Write(p.statics, SlotRef, 0)
		return nil
	})
	return p.e.Heap.Get(ref)
}

func runMIRW(mode Mode) bool {
	p := newPrivEnv(mode)
	<-p.committed
	r1 := p.privatize()
	r2 := p.e.NTRead(r1, SlotF) // inside the write-back window, if any
	close(p.probed)
	<-p.t2done
	r3 := p.e.NTRead(r1, SlotF) // after write-back completes
	return r2 != r3
}

func runMIWW(mode Mode) bool {
	p := newPrivEnv(mode)
	<-p.committed
	r1 := p.privatize()
	p.e.NTWrite(r1, SlotF, 0) // inside the write-back window, if any
	close(p.probed)
	<-p.t2done
	// The paper's question: can r1.val != 0 after the owner wrote 0?
	return p.e.NTRead(r1, SlotF) != 0
}

// ---- Figure 4a: overlapped writes ----
//
// A transaction initializes el.val and publishes el through a volatile
// reference x. Lazy write-back applies the two stores in no particular
// order, so a reader may see the reference before the initialization.

func runMIOW(mode Mode) bool {
	firstWB := make(chan struct{})
	probed := make(chan struct{})
	var cfg EnvConfig
	if lazyCommitWindow(mode) {
		wait := windowWait(mode)
		var held atomic.Bool
		cfg.Sink = trace.SinkFunc(func(ev trace.Event) {
			if ev.Kind == trace.EvWriteBack && held.CompareAndSwap(false, true) {
				close(firstWB)
				wait(probed)
			}
		})
	}
	e := NewEnv(mode, cfg)
	el := e.NewCell()
	statics := e.NewCell() // x lives in statics.SlotRef, initially null

	const sentinel = 99
	var r uint64 = sentinel
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // Thread 2: if x != null then r = x.val
		defer wg.Done()
		<-firstWB
		rx := e.NTRead(statics, SlotRef)
		if rx != 0 {
			r = e.NTRead(e.Heap.Get(objmodel.Ref(rx)), SlotF)
		}
		close(probed)
	}()
	_ = e.Atomic(func(a Accessor) error { // Thread 1: atomic { el.val = 1; x = el }
		a.Write(el, SlotF, 1)
		a.Write(statics, SlotRef, uint64(el.Ref()))
		return nil
	})
	if !lazyCommitWindow(mode) {
		close(firstWB) // no write-back window to instrument
	}
	wg.Wait()
	return r == 0 // saw the published reference but not the initialization
}
