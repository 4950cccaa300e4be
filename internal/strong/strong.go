// Package strong implements the non-transactional read and write isolation
// barriers that give the STM strong atomicity (Sections 3.2–3.3 and
// Figure 9/10 of the paper), including the dynamic-escape-analysis variants
// and the aggregated barriers produced by the JIT optimization of
// Section 6.
//
// The barriers mirror the paper's IA32 sequences:
//
// Read barrier (Figure 9a): load the transaction record, load the slot,
// test bit 1 of the record (detects a transactional owner), and re-load the
// record to validate that no one acquired it between the two loads. On
// conflict, call the conflict handler and retry.
//
// Write barrier (Figure 9b): atomically clear bit 0 of the record ("lock
// btr"), which transitions Shared to Exclusive-anonymous; on failure call
// the conflict handler and retry. After the store the paper adds 9 to the
// record, restoring Shared one version up. Here the release is a store of a
// computed version instead (releaseAnon): the runtimes validate a read set
// against the heap's commit clock, so the barrier owes the clock a step when
// a live transaction may have read the object, and owes it nothing when none
// can have. It tells the two apart by comparing the version it acquired at
// with the clock, and releases one version ahead of the clock so that the
// next write to the same object falls in the second case: a run of writes to
// an object no transaction reads in between costs one clock step, not one
// each (DESIGN.md §11 has the argument and the variant that is unsound).
//
// With dynamic escape analysis (Figure 10) both barriers first check for
// the Private (all ones) record and skip all synchronization; the write
// barrier additionally publishes a private object whose reference is
// written into a public object.
package strong

import (
	"sync/atomic"

	"repro/internal/conflict"
	"repro/internal/objmodel"
	"repro/internal/trace"
	"repro/internal/txrec"
)

// Stats counts barrier executions for the paper's experiments. All counters
// are atomic; attach a Stats only when measuring, since counting costs as
// much as the barrier fast path itself.
type Stats struct {
	Reads         atomic.Int64 // read barriers executed
	Writes        atomic.Int64 // write barriers executed
	PrivateReads  atomic.Int64 // reads satisfied by the private fast path
	PrivateWrites atomic.Int64 // writes satisfied by the private fast path
	Aggregates    atomic.Int64 // aggregated barrier acquisitions
	OrderingReads atomic.Int64 // lazy-STM ordering read barriers (§3.3)
}

// Barriers executes non-transactional accesses with isolation barriers.
type Barriers struct {
	Heap *objmodel.Heap

	// DEA enables the Figure 10 private-object fast paths and publication.
	DEA bool

	// Handler receives conflict notifications; nil means a
	// conflict.Backoff. A conflict.Panic raises the race instead, the
	// paper's "break to the debugger".
	Handler conflict.Handler

	// Stats, when non-nil, counts barrier executions.
	Stats *Stats

	// Tracer, when non-nil, records every completed barriered access as a
	// trace.EvNTRead or trace.EvNTWrite (reads after the value is
	// validated, writes after the store), on the accessing goroutine and in
	// the same Seq order as the runtimes' events: a synchronous Sink on it,
	// such as the soundness oracle (internal/analysis/oracle), sees
	// non-transactional traffic beside transactional. Leave nil when
	// measuring: recording costs more than the fast path.
	Tracer *trace.Tracer
}

// record emits one non-transactional access; callers check b.Tracer first.
func (b *Barriers) record(k trace.Kind, o *objmodel.Object, slot int, ver uint64) {
	b.Tracer.Record(k, 0, uint64(o.Ref()), slot, ver)
}

// elide reports whether the Figure 10 private fast paths and publication
// must be active. DEA turns them on explicitly; a loaded elision manifest
// forces them on because manifest-classified objects are born private, and
// a Private (all-ones) record reaching the generic write barrier's
// anonymous acquisition would be corrupted by its bit-0 CAS.
func (b *Barriers) elide() bool {
	return b.DEA || b.Heap.HasManifest()
}

// New returns Barriers over heap with the default conflict handler.
func New(heap *objmodel.Heap, dea bool) *Barriers {
	return &Barriers{Heap: heap, DEA: dea}
}

var defaultHandler = &conflict.Backoff{}

func (b *Barriers) handle(kind conflict.Kind, attempt int, rec txrec.Word) {
	h := b.Handler
	if h == nil {
		h = defaultHandler
	}
	h.HandleConflict(conflict.Info{Kind: kind, Attempt: attempt, Record: rec})
}

// Read is the non-transactional read isolation barrier (Figure 9a, or 10a
// with DEA). It detects dirty reads in the eager-versioning STM: if a
// transaction owns the object the handler is invoked and the read retries.
func (b *Barriers) Read(o *objmodel.Object, slot int) uint64 {
	if b.Stats != nil {
		b.Stats.Reads.Add(1)
	}
	elide := b.elide()
	for attempt := 0; ; attempt++ {
		w := o.Rec.Load()
		v := o.LoadSlot(slot)
		if elide && txrec.IsPrivate(w) {
			// Optional explicit private check (Figure 10a): private records
			// also have bit 1 set, so the generic path below would accept
			// them too; the explicit check just skips the re-validation.
			if b.Stats != nil {
				b.Stats.PrivateReads.Add(1)
			}
			if b.Tracer != nil {
				b.record(trace.EvNTRead, o, slot, 0)
			}
			return v
		}
		if txrec.ConflictsWithRead(w) {
			b.handle(conflict.NonTxnRead, attempt, w)
			continue
		}
		if o.Rec.Load() != w {
			// Someone acquired (or released) the record between our two
			// loads; the value may be speculative. Retry.
			b.handle(conflict.NonTxnRead, attempt, w)
			continue
		}
		if b.Tracer != nil {
			b.record(trace.EvNTRead, o, slot, txrec.Version(w))
		}
		return v
	}
}

// ReadRef is Read for reference slots.
func (b *Barriers) ReadRef(o *objmodel.Object, slot int) objmodel.Ref {
	return objmodel.Ref(b.Read(o, slot))
}

// ReadOrdering is the lighter read barrier a lazy-versioning STM needs
// (Section 3.3): lazy versioning never exposes dirty data, so the barrier
// only checks for a pending update by a committed transaction (record still
// exclusive during write-back) and does not re-validate after the load.
func (b *Barriers) ReadOrdering(o *objmodel.Object, slot int) uint64 {
	if b.Stats != nil {
		b.Stats.OrderingReads.Add(1)
	}
	for attempt := 0; ; attempt++ {
		w := o.Rec.Load()
		if txrec.ConflictsWithRead(w) {
			b.handle(conflict.NonTxnRead, attempt, w)
			continue
		}
		v := o.LoadSlot(slot)
		if b.Tracer != nil {
			var ver uint64 // a private record has no version
			if !txrec.IsPrivate(w) {
				ver = txrec.Version(w)
			}
			b.record(trace.EvNTRead, o, slot, ver)
		}
		return v
	}
}

// ReadOrderingRef is ReadOrdering for reference slots.
func (b *Barriers) ReadOrderingRef(o *objmodel.Object, slot int) objmodel.Ref {
	return objmodel.Ref(b.ReadOrdering(o, slot))
}

// Write is the non-transactional write isolation barrier (Figure 9b, or 10b
// with DEA). It acquires exclusive-anonymous ownership with an atomic
// bit-test-and-reset, performs the store, and releases one version up or
// more (releaseAnon).
func (b *Barriers) Write(o *objmodel.Object, slot int, v uint64) {
	if b.Stats != nil {
		b.Stats.Writes.Add(1)
	}
	elide := b.elide()
	if elide && o.Rec.Load() == txrec.PrivateWord {
		// Private fast path (Figure 10b): the object is visible to this
		// thread only. A write of a reference into a *private* object does
		// not publish anything.
		if b.Stats != nil {
			b.Stats.PrivateWrites.Add(1)
		}
		o.StoreSlot(slot, v)
		if b.Tracer != nil {
			b.record(trace.EvNTWrite, o, slot, 0)
		}
		return
	}
	for attempt := 0; ; attempt++ {
		prev, ok := o.Rec.AcquireAnon()
		if !ok {
			b.handle(conflict.NonTxnWrite, attempt, prev)
			continue
		}
		// Publication (Figure 10b, asterisked instructions, reference types
		// only): the container is public, so a private object being written
		// into it escapes, along with everything it reaches.
		if elide && v != 0 && o.IsRefSlot(slot) {
			b.Heap.PublishRef(objmodel.Ref(v))
		}
		o.StoreSlot(slot, v)
		rv := b.releaseAnon(o, txrec.Version(prev))
		if b.Tracer != nil {
			b.record(trace.EvNTWrite, o, slot, rv)
		}
		return
	}
}

// WriteRef is Write for reference slots.
func (b *Barriers) WriteRef(o *objmodel.Object, slot int, r objmodel.Ref) {
	b.Write(o, slot, uint64(r))
}

// releaseAnon ends an anonymous hold of o that was acquired at Shared version
// v, after the holder's stores. While the record is Exclusive-anonymous the
// stores are invisible to transactions (every runtime waits on an anonymous
// owner); the release makes them visible, so whatever the clock is owed is
// paid first.
//
// It is owed a step when the clock has reached v. A transaction records a
// read of o at v only under a snapshot at or above v (a version above the
// snapshot sends the read through ExtendSnapshot, which raises the clock to
// the version before the read is sampled again), it took that snapshot from
// the clock before it last saw the record at v, and that was before this
// hold began. So a clock still below v proves that no live transaction holds
// o at v, and nothing is owed: an older entry for o lost its fast path to
// whichever writer moved o on from it, or, if only value-restoring releases
// did, to the raise those make (txn.Txn.CoverBump), which would have put the
// clock at v. A clock at or above v proves nothing, and stepping it before
// the release takes the commit fast path (clock == snapshot) away from every
// snapshot taken so far, which then walks and finds o changed.
//
// Either way o is released one version ahead of the clock, so the next hold
// of it finds the clock below its version until some transaction reads o and
// raises the clock over it. Versions stay strictly monotone per object. It
// returns the version released.
func (b *Barriers) releaseAnon(o *objmodel.Object, v uint64) uint64 {
	if c := b.Heap.Clock().Load(); c >= v {
		b.Heap.Clock().Tick()
		v = c + 1 // where Tick left the clock, unless others moved it further
	}
	v = objmodel.CheckVersion(v + 1)
	o.Rec.Store(txrec.MakeShared(v))
	return v
}

// AggToken is the state carried by an aggregated barrier (Figure 14)
// between Acquire and Release.
type AggToken struct {
	private bool
	version uint64 // the Shared version the record was acquired at
}

// Acquire begins an aggregated barrier on o: it acquires the transaction
// record once so that a following run of plain loads and stores to the same
// object executes under a single acquisition, exactly the code the paper's
// JIT emits after barrier aggregation (Figure 14b). With DEA, a private
// object skips acquisition entirely.
func (b *Barriers) Acquire(o *objmodel.Object) AggToken {
	if b.Stats != nil {
		b.Stats.Aggregates.Add(1)
	}
	if b.elide() && o.Rec.Load() == txrec.PrivateWord {
		return AggToken{private: true}
	}
	for attempt := 0; ; attempt++ {
		prev, ok := o.Rec.AcquireAnon()
		if ok {
			return AggToken{version: txrec.Version(prev)}
		}
		b.handle(conflict.NonTxnWrite, attempt, prev)
	}
}

// AggWrite stores a value inside an aggregated barrier, publishing written
// references when the object is public and DEA is enabled. Its trace event
// carries the version the record was acquired at: the version Release will
// store is not chosen yet.
func (b *Barriers) AggWrite(o *objmodel.Object, slot int, v uint64, tok AggToken) {
	if !tok.private && v != 0 && o.IsRefSlot(slot) && b.elide() {
		b.Heap.PublishRef(objmodel.Ref(v))
	}
	o.StoreSlot(slot, v)
	if b.Tracer != nil {
		b.record(trace.EvNTWrite, o, slot, tok.version)
	}
}

// AggRead loads a value inside an aggregated barrier.
func (b *Barriers) AggRead(o *objmodel.Object, slot int, tok AggToken) uint64 {
	v := o.LoadSlot(slot)
	if b.Tracer != nil {
		b.record(trace.EvNTRead, o, slot, tok.version)
	}
	return v
}

// Release ends an aggregated barrier, restoring Shared at a higher version
// (the paper's "add [a.txnfld],9"; here releaseAnon, as in Write: values may
// have changed under the aggregated ownership).
func (b *Barriers) Release(o *objmodel.Object, tok AggToken) {
	if tok.private {
		return
	}
	b.releaseAnon(o, tok.version)
}
