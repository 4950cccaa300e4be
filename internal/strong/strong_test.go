package strong

import (
	"sync"
	"testing"

	"repro/internal/conflict"
	"repro/internal/objmodel"
	"repro/internal/stm"
	"repro/internal/stmapi"
	"repro/internal/txrec"
)

func setup(t testing.TB, dea bool) (*objmodel.Heap, *objmodel.Class, *Barriers) {
	t.Helper()
	h := objmodel.NewHeap()
	h.AllocPrivate = dea
	cls := h.MustDefineClass(objmodel.ClassSpec{
		Name: "Cell",
		Fields: []objmodel.Field{
			{Name: "f"}, {Name: "g"}, {Name: "next", IsRef: true},
		},
	})
	b := New(h, dea)
	b.Stats = &Stats{}
	return h, cls, b
}

// releasedAhead checks what every anonymous release leaves behind: o Shared,
// above the version it had before and above the clock. It returns the version.
func releasedAhead(t *testing.T, h *objmodel.Heap, o *objmodel.Object, prior uint64) uint64 {
	t.Helper()
	w := o.Rec.Load()
	if !txrec.IsShared(w) {
		t.Fatalf("record = %#x, want shared", w)
	}
	v := txrec.Version(w)
	if c := h.Clock().Load(); v <= prior || v <= c {
		t.Errorf("released at version %d, want above the prior version %d and the clock %d", v, prior, c)
	}
	return v
}

func TestReadWriteRoundTrip(t *testing.T) {
	h, cls, b := setup(t, false)
	o := h.New(cls)
	b.Write(o, 0, 17)
	if got := b.Read(o, 0); got != 17 {
		t.Errorf("read = %d, want 17", got)
	}
	releasedAhead(t, h, o, 1)
	if b.Stats.Reads.Load() != 1 || b.Stats.Writes.Load() != 1 {
		t.Errorf("stats = %d reads / %d writes", b.Stats.Reads.Load(), b.Stats.Writes.Load())
	}
}

func TestReadConflictsWithTxnOwner(t *testing.T) {
	h, cls, _ := setup(t, false)
	o := h.New(cls)
	b := New(h, false)
	b.Handler = &conflict.Panic{}
	// Simulate a transaction holding the record exclusively.
	o.Rec.Store(txrec.MakeExclusive(7))
	defer func() {
		if _, ok := recover().(conflict.RaceError); !ok {
			t.Error("read of transactionally-owned object did not conflict")
		}
		o.Rec.Store(txrec.MakeShared(1))
	}()
	b.Read(o, 0)
}

func TestWriteConflictsWithTxnOwner(t *testing.T) {
	h, cls, _ := setup(t, false)
	o := h.New(cls)
	b := New(h, false)
	b.Handler = &conflict.Panic{}
	o.Rec.Store(txrec.MakeExclusive(7))
	defer func() {
		if _, ok := recover().(conflict.RaceError); !ok {
			t.Error("write to transactionally-owned object did not conflict")
		}
	}()
	b.Write(o, 0, 1)
}

func TestReadDoesNotConflictWithAnonWriterHolding(t *testing.T) {
	// Per Section 3.2, the read barrier deliberately ignores conflicts
	// between two non-transactional threads (bit-1 test only).
	h, cls, b := setup(t, false)
	o := h.New(cls)
	o.Rec.Store(txrec.MakeExclusiveAnon(1))
	done := make(chan uint64, 1)
	go func() { done <- b.Read(o, 0) }()
	if got := <-done; got != 0 {
		t.Errorf("read = %d", got)
	}
	o.Rec.Store(txrec.MakeShared(2))
}

func TestWriteConflictsWithAnonWriter(t *testing.T) {
	h, cls, _ := setup(t, false)
	o := h.New(cls)
	b := New(h, false)
	b.Handler = &conflict.Panic{}
	o.Rec.Store(txrec.MakeExclusiveAnon(1))
	defer func() {
		if _, ok := recover().(conflict.RaceError); !ok {
			t.Error("write did not conflict with a concurrent non-transactional writer")
		}
	}()
	b.Write(o, 0, 5)
}

func TestOrderingReadWaitsForWriteback(t *testing.T) {
	h, cls, _ := setup(t, false)
	o := h.New(cls)
	b := New(h, false)
	b.Handler = &conflict.Panic{}
	o.Rec.Store(txrec.MakeExclusive(3)) // committed txn still writing back
	func() {
		defer func() {
			if _, ok := recover().(conflict.RaceError); !ok {
				t.Error("ordering read barrier ignored a pending write-back")
			}
		}()
		b.ReadOrdering(o, 0)
	}()
	// Once released, the read proceeds.
	o.StoreSlot(0, 9)
	o.Rec.ReleaseOwned(1)
	if got := b.ReadOrdering(o, 0); got != 9 {
		t.Errorf("ordering read = %d, want 9", got)
	}
}

func TestDEAPrivateFastPaths(t *testing.T) {
	h, cls, b := setup(t, true)
	o := h.New(cls)
	if !o.IsPrivate() {
		t.Fatal("object not private")
	}
	b.Write(o, 0, 5)
	if got := b.Read(o, 0); got != 5 {
		t.Errorf("read = %d", got)
	}
	if !o.IsPrivate() {
		t.Error("private fast-path write must not change the record")
	}
	if b.Stats.PrivateWrites.Load() != 1 || b.Stats.PrivateReads.Load() != 1 {
		t.Errorf("private fast path counters = %d/%d, want 1/1",
			b.Stats.PrivateReads.Load(), b.Stats.PrivateWrites.Load())
	}
}

// TestDEAPublishOnWriteToPublic exercises the Figure 10b publication path:
// writing a private object's reference into a public object publishes the
// whole reachable subgraph before the store becomes visible.
func TestDEAPublishOnWriteToPublic(t *testing.T) {
	h, cls, b := setup(t, true)
	pub := h.NewPublic(cls)
	priv := h.New(cls)
	child := h.New(cls)
	priv.StoreSlot(2, uint64(child.Ref()))
	b.WriteRef(pub, 2, priv.Ref())
	if priv.IsPrivate() || child.IsPrivate() {
		t.Error("written subgraph not published")
	}
	if got := b.ReadRef(pub, 2); got != priv.Ref() {
		t.Errorf("stored ref = %d, want %d", got, priv.Ref())
	}
}

func TestDEANoPublishOnWriteToPrivate(t *testing.T) {
	h, cls, b := setup(t, true)
	container := h.New(cls)
	child := h.New(cls)
	b.WriteRef(container, 2, child.Ref())
	if !child.IsPrivate() {
		t.Error("write into private container must not publish")
	}
}

func TestDEANoPublishForScalarSlots(t *testing.T) {
	h, cls, b := setup(t, true)
	pub := h.NewPublic(cls)
	other := h.New(cls)
	// Slot 0 is a scalar; writing a value that happens to equal a handle
	// must not publish anything.
	b.Write(pub, 0, uint64(other.Ref()))
	if !other.IsPrivate() {
		t.Error("scalar write published an object")
	}
}

func TestAggregatedBarrier(t *testing.T) {
	h, cls, b := setup(t, false)
	o := h.New(cls)
	tok := b.Acquire(o)
	if !txrec.IsExclusiveAnon(o.Rec.Load()) {
		t.Error("aggregate acquire did not take the record")
	}
	b.AggWrite(o, 0, 10, tok)
	v := b.AggRead(o, 0, tok)
	b.AggWrite(o, 1, v+1, tok)
	b.Release(o, tok)
	releasedAhead(t, h, o, 1) // one release for the whole group
	if o.LoadSlot(0) != 10 || o.LoadSlot(1) != 11 {
		t.Errorf("slots = %d,%d", o.LoadSlot(0), o.LoadSlot(1))
	}
	if b.Stats.Aggregates.Load() != 1 {
		t.Errorf("aggregates = %d", b.Stats.Aggregates.Load())
	}
}

func TestAggregatedBarrierPrivate(t *testing.T) {
	h, cls, b := setup(t, true)
	o := h.New(cls)
	tok := b.Acquire(o)
	b.AggWrite(o, 0, 1, tok)
	b.Release(o, tok)
	if !o.IsPrivate() {
		t.Error("aggregate on private object must skip the record entirely")
	}
}

func TestAggregatedBarrierPublishes(t *testing.T) {
	h, cls, b := setup(t, true)
	pub := h.NewPublic(cls)
	priv := h.New(cls)
	tok := b.Acquire(pub)
	b.AggWrite(pub, 2, uint64(priv.Ref()), tok)
	b.Release(pub, tok)
	if priv.IsPrivate() {
		t.Error("aggregated ref write did not publish")
	}
}

// TestStrongAtomicityEndToEnd: concurrent transactional increments and
// barriered non-transactional increments to the same counter must compose
// with no lost updates — the intermediate-lost-update (ILU) anomaly of
// Figure 2b must not occur under strong atomicity. The non-transactional
// increment holds the record across its read and write (the aggregated
// barrier a compiler emits for o.f++); as two separate barriers it is not
// atomic, and a transaction committing between them is overwritten
// whatever the atomicity regime.
func TestStrongAtomicityEndToEnd(t *testing.T) {
	h, cls, b := setup(t, false)
	rt := stm.New(h, stmapi.CommonConfig{})
	o := h.New(cls)
	const perSide = 2000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < perSide; i++ {
			_ = rt.Atomic(func(tx stmapi.Txn) error {
				tx.Write(o, 0, tx.Read(o, 0)+1)
				return nil
			})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < perSide; i++ {
			tok := b.Acquire(o)
			b.AggWrite(o, 0, b.AggRead(o, 0, tok)+1, tok)
			b.Release(o, tok)
		}
	}()
	wg.Wait()
	if got := o.LoadSlot(0); got != 2*perSide {
		t.Errorf("counter = %d, want %d (updates lost across the txn boundary)", got, 2*perSide)
	}
}

// TestNoDirtyReads: a non-transactional reader must never observe the odd
// intermediate state of a transaction that preserves evenness — the
// intermediate-dirty-read (IDR) anomaly of Figure 2c must not occur.
func TestNoDirtyReads(t *testing.T) {
	h, cls, b := setup(t, false)
	rt := stm.New(h, stmapi.CommonConfig{})
	o := h.New(cls)
	stop := make(chan struct{})
	var odd int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if b.Read(o, 0)%2 != 0 {
				odd++
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		_ = rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(o, 0, tx.Read(o, 0)+1)
			tx.Write(o, 0, tx.Read(o, 0)+1)
			return nil
		})
	}
	close(stop)
	wg.Wait()
	if odd != 0 {
		t.Errorf("observed %d dirty (odd) reads", odd)
	}
}

func TestNilHandlerDefaults(t *testing.T) {
	h, cls, _ := setup(t, false)
	b := &Barriers{Heap: h}
	o := h.New(cls)
	o.Rec.Store(txrec.MakeExclusiveAnon(1))
	done := make(chan struct{})
	go func() {
		// Conflicting write: the nil handler must lazily default to backoff
		// rather than crash; release the record shortly after.
		b.Write(o, 0, 1)
		close(done)
	}()
	o.Rec.ReleaseAnon()
	<-done
	if got := o.LoadSlot(0); got != 1 {
		t.Errorf("slot = %d", got)
	}
}

// barrierTickOrdering checks that mutate ticks the commit clock BEFORE its
// anonymous release publishes the mutation: a watcher that observes the
// record back in Shared at a bumped version and then still reads the
// pre-mutation clock value has caught the unsound window in which a
// transaction could read the released value yet pass the single-compare
// validation fast path with a stale snapshot (sync/atomic operations are
// sequentially consistent, so a tick-after-release would make that
// interleaving possible). The window is a couple of instructions wide, so
// this is a probabilistic canary for the ordering — a failure is always a
// real regression, but a lucky run of a misordered barrier can pass — plus
// a hard assertion that every barrier ticks the clock at all.
func barrierTickOrdering(t *testing.T, mutate func(b *Barriers, o *objmodel.Object)) {
	t.Helper()
	h, cls, b := setup(t, false)
	clock := h.Clock()
	iters := 2000
	if testing.Short() {
		iters = 200
	}
	for i := 0; i < iters; i++ {
		o := h.New(cls)
		before := clock.Load()
		violated := false
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				w := o.Rec.Load()
				if txrec.IsShared(w) && txrec.Version(w) > 1 {
					if clock.Load() == before {
						violated = true
					}
					return
				}
			}
		}()
		mutate(b, o)
		<-done
		if violated {
			t.Fatalf("iter %d: release visible while clock still at pre-write value %d", i, before)
		}
		if clock.Load() == before {
			t.Fatalf("iter %d: barrier did not tick the clock", i)
		}
	}
}

func TestWriteTicksClockBeforeRelease(t *testing.T) {
	barrierTickOrdering(t, func(b *Barriers, o *objmodel.Object) {
		b.Write(o, 0, 42)
	})
}

func TestAggReleaseTicksClockBeforeRelease(t *testing.T) {
	barrierTickOrdering(t, func(b *Barriers, o *objmodel.Object) {
		tok := b.Acquire(o)
		b.AggWrite(o, 0, 42, tok)
		b.Release(o, tok)
	})
}

// TestDisabledTracerAllocFree: with no tracer (and no Stats) installed, no
// barrier allocates, on a public object or on a private one (the Figure 10
// fast paths), so the Tracer's one nil check is all the disabled path adds.
func TestDisabledTracerAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; exact alloc count only meaningful without -race")
	}
	h, cls, b := setup(t, true)
	b.Stats = nil
	pub, priv := h.NewPublic(cls), h.New(cls)
	for _, o := range []*objmodel.Object{pub, priv} {
		for _, op := range []struct {
			name string
			run  func()
		}{
			{"Read", func() { _ = b.Read(o, 0) }},
			{"ReadOrdering", func() { _ = b.ReadOrdering(o, 0) }},
			{"Write", func() { b.Write(o, 0, 1) }},
			{"Acquire/AggWrite/AggRead/Release", func() {
				tok := b.Acquire(o)
				b.AggWrite(o, 0, 2, tok)
				_ = b.AggRead(o, 1, tok)
				b.Release(o, tok)
			}},
		} {
			if avg := testing.AllocsPerRun(200, op.run); avg != 0 {
				t.Errorf("%s on a private=%v object: %.1f allocations, want 0", op.name, o.IsPrivate(), avg)
			}
		}
	}
}
