// Package lazystm implements a lazy-versioning STM in the style the paper
// contrasts against (Sections 2.3 and 3.3): transactions buffer their
// writes privately and publish them to shared memory only after commit.
// Records are acquired at commit time, the read set is validated, the
// transaction logically commits, and the buffered updates are then copied
// back one at a time before the records are released: the paper says "in no
// particular order", and this runtime copies the last-buffered slot first
// (Commit says why).
//
// The window between the commit point and the completion of write-back is
// precisely what produces the memory-inconsistency (MI) anomalies of
// Figure 4 and the privatization problem of Figure 1 under weak atomicity;
// the ordering read barrier of Section 3.3 (package strong) closes it.
// The commit point and each slot's write-back are trace events
// (trace.EvCommitPoint, trace.EvWriteBack), so a synchronous trace.Sink can
// hold a transaction inside that window deterministically, as the litmus
// tests do.
//
// The write buffer operates at a configurable slot granularity: with
// Granularity 2 a first write to a slot buffers the span of two adjacent
// slots it falls in, snapshotting the neighbour's value at that moment —
// reproducing the granular lost update (GLU) and granular inconsistent read
// (GIR) anomalies of Section 2.4.
//
// Everything that is not versioning is the transaction kernel, package txn,
// which this runtime embeds and plugs into through txn.Strategy; that
// includes the write buffer and the commit-time locking protocol it shares
// with the multi-version runtime (txn.Deferred). What is here is the
// versioning: the Read and Write barriers, the spans, and in commit the
// validation and the write-back. The differences from the eager runtime all
// follow from buffering:
//
//   - An attempt that has not passed its commit point never wrote to shared
//     memory, so rolling it back (or reclaiming it as an orphan) only
//     restores the acquired records to their original Shared words — no
//     version bump, no undo replay. Discarding the buffer is free.
//
//   - Irrevocable transactions acquire records for their reads during the
//     body (tx.Owned tracks holdings from the switch onward, and the switch
//     locks the read set through the kernel's txn.Txn.LockReadSet); commit
//     keeps those holdings and acquires the rest of the write set.
//
// Every Atomic runs one flat transaction: there is no nesting.
package lazystm

import (
	"context"

	"repro/internal/conflict"
	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/txrec"
)

// Runtime is a lazy-versioning STM instance bound to a heap, configured by
// the cross-runtime stmapi.CommonConfig and nothing lazy-specific. The
// embedded kernel is its whole driver surface: Atomic, AtomicCtx,
// AtomicIrrevocable, Heap, Stats, the setters and ReapDead, so *Runtime is
// an stmapi.DurableRuntime.
type Runtime struct {
	txn.Kernel
}

// New creates a lazy-versioning Runtime over heap. Invalid configurations
// are rejected with a panic.
func New(heap *objmodel.Heap, cfg stmapi.CommonConfig) *Runtime {
	rt := &Runtime{}
	rt.Init("lazy", heap, cfg, func() txn.Strategy {
		return &Txn{rt: rt}
	})
	return rt
}

func init() {
	txn.Register("lazy", func(heap *objmodel.Heap, cfg stmapi.CommonConfig) stmapi.Runtime {
		return New(heap, cfg)
	})
}

// Txn is a lazy-versioning transaction descriptor: the kernel's
// deferred-update descriptor, whose buffer holds the spans. Pooled across
// Atomic calls; user code must not retain one past the body.
type Txn struct {
	txn.Deferred
	rt *Runtime
}

// Read returns the transaction's view of o's slot: the private buffer if
// the containing span has been buffered (even when only the *adjacent*
// slot was written — the granular inconsistent read of Section 2.4),
// otherwise shared memory under optimistic version validation.
func (tx *Txn) Read(o *objmodel.Object, slot int) uint64 {
	tx.NReads++
	tx.Poll(o)
	if len(tx.Buf.Ents) > 0 {
		if i := tx.Buf.Find(o, slot); i >= 0 {
			if tr := tx.Tr; tr != nil {
				tr.Record(trace.EvRead, tx.ID(), uint64(o.Ref()), slot, 0)
			}
			return tx.Buf.Ents[i].Val
		}
	}
	for attempt := 0; ; attempt++ {
		w := o.Rec.Load()
		switch {
		case txrec.IsPrivate(w):
			// Traced even though no logging is needed: the soundness oracle
			// audits private (elided) accesses against the manifest.
			if tr := tx.Tr; tr != nil {
				tr.Record(trace.EvRead, tx.ID(), uint64(o.Ref()), slot, 0)
			}
			return o.LoadSlot(slot)
		case txrec.IsExclusive(w) && txrec.Owner(w) == tx.ID():
			// Our own pessimistic hold (irrevocable mode): the slot value in
			// memory is ours to read — write-back has not happened, so it is
			// the pre-transaction value unless buffered (handled above).
			return o.LoadSlot(slot)
		case !txrec.IsShared(w):
			// Lazy versioning never reads another transaction's data while
			// its record is held (there is no dirty data in memory, but a
			// committer may be writing back).
			tx.ConflictWait(o, conflict.TxnRead, attempt, w)
		case tx.Irrevocable:
			// Pessimistic read: acquire the record so nothing can ever
			// invalidate it (no abort is legal past the switch).
			if !tx.Acquire(o, w) {
				continue
			}
			tx.Reads.Put(o, txrec.Version(w))
			if tr := tx.Tr; tr != nil {
				tr.Record(trace.EvRead, tx.ID(), uint64(o.Ref()), slot, txrec.Version(w))
			}
			return o.LoadSlot(slot)
		default:
			v := o.LoadSlot(slot)
			if o.Rec.Load() != w {
				continue
			}
			ver := txrec.Version(w)
			if tx.rt.ClockOn && ver > tx.RV {
				// Version postdates the clock snapshot: extend it (or restart
				// if the read set is stale), then sample o again under the
				// snapshot that covers it.
				tx.ExtendSnapshot(o, ver)
				continue
			}
			if prev, ok := tx.Reads.Get(o); !ok {
				tx.Reads.Put(o, ver)
			} else if prev != ver {
				tx.RestartOn(uint64(o.Ref()))
			}
			if tr := tx.Tr; tr != nil {
				tr.Record(trace.EvRead, tx.ID(), uint64(o.Ref()), slot, ver)
			}
			return v
		}
	}
}

// ReadRef is Read for reference slots.
func (tx *Txn) ReadRef(o *objmodel.Object, slot int) objmodel.Ref {
	return objmodel.Ref(tx.Read(o, slot))
}

// Write buffers a store to o's slot. On first touch of a span every slot in
// it enters the buffer, the others with their current contents; the snapshot
// of the *adjacent* slot is what later manufactures the granular lost update
// when Granularity > 1.
func (tx *Txn) Write(o *objmodel.Object, slot int, v uint64) {
	tx.NWrites++
	tx.Poll(o)
	if i := tx.Buf.Find(o, slot); i >= 0 {
		tx.Buf.Ents[i].Val = v
	} else {
		g := tx.rt.Config().Granularity
		base := slot &^ (g - 1)
		for s := base; s < base+g && s < len(o.Slots); s++ {
			if s == slot {
				tx.Buf.Add(o, s, v)
			} else {
				tx.Buf.Add(o, s, o.LoadSlot(s))
			}
		}
	}
	if tr := tx.Tr; tr != nil {
		tr.Record(trace.EvWrite, tx.ID(), uint64(o.Ref()), slot, 0)
	}
}

// WriteRef is Write for reference slots.
func (tx *Txn) WriteRef(o *objmodel.Object, slot int, r objmodel.Ref) {
	tx.Write(o, slot, uint64(r))
}

// RetryWait implements txn.Strategy.
func (tx *Txn) RetryWait(ctx context.Context) error { return tx.WaitForReadSetChange(ctx) }

// Commit implements txn.Strategy with the lazy commit protocol: acquire the
// write set's records in buffer order, validate the read set, pass the
// commit point, write back the buffered slots from the last buffered to the
// first, release the records, and (in quiescence mode) wait out the attempts
// in flight, so every commit serialized earlier has written back.
func (tx *Txn) Commit() (ok bool, err error) {
	if tx.Doomed() && !tx.Irrevocable {
		return false, nil
	}
	// An irrevocable transaction arrives already holding its pessimistically
	// read records in Owned; those are kept. No first-committer-wins rule:
	// the read set is validated below.
	ents := tx.Buf.Ents
	if !tx.LockWriteSet(txn.NoLimit) {
		return false, nil
	}
	// The write version is obtained before the commit point, so every
	// release past here — normal or reaper-completed — stamps records with
	// tx.WV. Transactions holding records without buffered writes
	// (pessimistic read locks only) release values unchanged and need none.
	if vok, bad := tx.ValidateCommit(len(ents) > 0); !vok {
		if tx.Irrevocable {
			// Structurally impossible: every read-set entry has been
			// Exclusive(self) since the switch.
			panic("lazystm: irrevocable transaction failed validation")
		}
		tx.Blame = bad
		tx.Release(false) // nothing reached memory; restore original versions
		return false, nil
	}

	// ----- commit point: the transaction is now serialized. -----
	tx.Serialize()

	// Write back, last-buffered slot first. The paper's lazy STM copies "in no
	// particular order", and what Figure 4a needs of that is a publishing
	// store able to land before the store that initializes what it publishes:
	// atomic { el.val = 1; x = el } buffers x last and writes it back first.
	publish := tx.rt.Heap().MintsPrivate()
	for k := range ents {
		e := &ents[len(ents)-1-k]
		// On a heap that mints private-born objects, write-back into a
		// public container is a publication point (Figure 10b): the
		// referenced subgraph escapes here.
		if publish && e.Val != 0 && e.Obj.IsRefSlot(e.Slot) && !txrec.IsPrivate(e.Obj.Rec.Load()) {
			tx.rt.Heap().PublishRef(objmodel.Ref(e.Val))
		}
		e.Obj.StoreSlot(e.Slot, e.Val)
		if tr := tx.Tr; tr != nil {
			tr.Record(trace.EvWriteBack, tx.ID(), uint64(e.Obj.Ref()), e.Slot, tx.WV)
		}
	}

	if tx.FI != nil {
		tx.FireCommitted()
	}

	durSeq, durErr := tx.AppendBufferedRedo()

	tx.ReleaseCommitted() // the token is surrendered before the quiescence wait
	return true, tx.AwaitCommitted(durSeq, durErr)
}

// ReapOrphan implements txn.Strategy: the kernel's record release,
// behind a clock tick when the orphan had committed. Its releases expose
// written-back values, so no snapshot predating them may keep its clock-only
// validation (see the eager reaper).
func (tx *Txn) ReapOrphan(committed bool) {
	if committed && tx.rt.ClockOn {
		tx.rt.Clock.Tick()
	}
	tx.Deferred.ReapOrphan(committed)
}
