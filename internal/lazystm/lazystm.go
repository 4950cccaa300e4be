// Package lazystm implements a lazy-versioning STM in the style the paper
// contrasts against (Sections 2.3 and 3.3): transactions buffer their
// writes privately and publish them to shared memory only after commit.
// Records are acquired at commit time, the read set is validated, the
// transaction logically commits, and the buffered updates are then copied
// back one at a time before the records are released: the paper says "in no
// particular order", and this runtime copies the last-buffered slot first
// (WriteBack says why).
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
// includes the commit protocol, the open-for-read and the commit-clock
// validation it shares with the eager runtime (txn.Txn.OpenRead,
// txn.Txn.ValidateCommit), the retry wait and the orphan reaper, and the
// write buffer, the commit-time locking and the redo image it shares with
// the multi-version runtime (txn.Deferred). What is here is the versioning:
// Read's buffer lookup in front of the kernel's read barrier, the Write
// barrier and its spans, and the order of the write-back (last-buffered
// slot first). The differences from the eager runtime all follow from
// buffering:
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
	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/trace"
	"repro/internal/txn"
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
// otherwise shared memory through the kernel's open-for-read
// (txn.Txn.OpenRead). A record this transaction holds (an irrevocable
// body's read lock) is read through: write-back has not happened, so memory
// holds the pre-transaction value of every slot the buffer does not.
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
	return tx.OpenRead(o, slot)
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

// WriteBack implements txn.Strategy: the buffered slots are stored from the
// last buffered to the first. The paper's lazy STM copies "in no particular
// order", and what Figure 4a needs of that is a publishing store able to
// land before the store that initializes what it publishes:
// atomic { el.val = 1; x = el } buffers x last and writes it back first.
func (tx *Txn) WriteBack() {
	ents := tx.Buf.Ents
	for k := range ents {
		tx.WriteEntry(&ents[len(ents)-1-k])
	}
}
