// Package stm implements the eager-versioning software transactional memory
// at the core of the paper's system (Section 3): McRT-STM-style optimistic
// concurrency control using versioning for reads and strict two-phase
// locking with eager versioning (in-place update + undo log) for writes.
//
// Each object's transaction record (package txrec) arbitrates access. A
// transaction opens an object for reading by sampling its version and
// validating the whole read set at commit; it opens an object for writing
// by CAS-ing the record from Shared to Exclusive, updating memory in place,
// and logging the old value for rollback. Commit validates the read set and
// releases owned records with incremented versions; abort replays the undo
// log in reverse and releases with incremented versions so that optimistic
// readers of intermediate state fail validation.
//
// The package also provides the features the paper's system supports:
// user-initiated retry, a quiescence mode (Section 3.4), configurable
// undo-log granularity (to reproduce the Section 2.4 anomalies), and
// integration with dynamic escape analysis (Section 4): accesses to
// private objects skip synchronization, and writing a reference into a
// public object immediately publishes the referenced private subgraph.
// Every Atomic runs one flat transaction: there is no closed or open
// nesting, and so no partial abort.
//
// Everything that is not versioning — the descriptor pool and registry, the
// retry loop and the retry wait, conflict arbitration, the open-for-read,
// commit-clock validation, the commit protocol, recovery, irrevocability,
// statistics — is the transaction kernel, package txn, which this runtime
// embeds and plugs its versioning into through txn.Strategy. Read is one
// call into the kernel's read barrier (txn.Txn.OpenRead): in-place versioning
// reads memory as it is. What is here is the versioning: the Write barrier
// and its undo log, and the two commit steps it has a part in, validation
// (txn.Txn.ValidateCommit, with a write version when it stored) and the redo
// image (the undo spans' current values), and rollback, which also rolls
// back an orphan that died before its commit point. The write set is the
// kernel's Owned set, and records are acquired and the irrevocable switch's
// read set locked through the kernel (txn.Txn.Acquire, txn.Txn.LockReadSet).
package stm

import (
	"repro/internal/conflict"
	"repro/internal/faultinject"
	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/txrec"
)

// Runtime is an eager-versioning STM instance bound to a heap. The embedded
// kernel is its whole driver surface: Atomic, AtomicCtx, AtomicIrrevocable,
// Heap, Stats, the setters and ReapDead, so *Runtime is an
// stmapi.DurableRuntime. Configuration is the cross-runtime
// stmapi.CommonConfig. Dynamic escape analysis is not part of it: the heap
// decides. On a heap that mints private objects (Heap.AllocPrivate, or an
// elision manifest) the runtime cooperates as the package comment says.
type Runtime struct {
	txn.Kernel
}

// New creates a Runtime over heap with the given configuration. Invalid
// configurations (granularity outside [1, MaxGranularity], negative
// self-abort threshold) are rejected here with a panic rather than
// misbehaving later.
func New(heap *objmodel.Heap, cfg stmapi.CommonConfig) *Runtime {
	rt := &Runtime{}
	rt.Init("eager", heap, cfg, func() txn.Strategy { return &Txn{rt: rt} })
	return rt
}

func init() {
	txn.Register("eager", func(heap *objmodel.Heap, cfg stmapi.CommonConfig) stmapi.Runtime {
		return New(heap, cfg)
	})
}

type undoEntry struct {
	obj  *objmodel.Object
	base int // first slot of the span
	n    int // number of slots captured
	vals [stmapi.MaxGranularity]uint64
}

// Txn is an eager-versioning transaction descriptor: the kernel descriptor
// (identity, read set, owned set — which is the write set — arbitration and
// recovery state) plus the undo log. A Txn is confined to the goroutine that runs the
// atomic body; only the kernel's atomic fields are read by other threads.
// Descriptors are pooled: outside an Atomic call a descriptor may be reused
// by any goroutine, so user code must not retain one past the body.
type Txn struct {
	txn.Txn
	rt *Runtime

	undo []undoEntry

	// wrote records whether this attempt stored in place to a shared
	// (record-acquired) object; private-object writes leave it false. Validate
	// asks for a write version only then: irrevocable transactions add
	// pessimistic READ claims to Owned without changing any value, and
	// releasing those unchanged needs no snapshot invalidation.
	wrote bool
}

// Begin implements txn.Strategy.
func (tx *Txn) Begin() {
	tx.undo = tx.undo[:0]
	tx.wrote = false
}

// Reset implements txn.Strategy.
func (tx *Txn) Reset() {
	clear(tx.undo)
	tx.undo = tx.undo[:0]
}

// Read opens object o for reading at slot and returns the value: the
// kernel's open-for-read (txn.Txn.OpenRead, Section 3.1), which in-place
// versioning needs nothing around.
func (tx *Txn) Read(o *objmodel.Object, slot int) uint64 {
	tx.NReads++
	tx.Poll(o)
	return tx.OpenRead(o, slot)
}

// ReadRef is Read for reference slots.
func (tx *Txn) ReadRef(o *objmodel.Object, slot int) objmodel.Ref {
	return objmodel.Ref(tx.Read(o, slot))
}

func (tx *Txn) logUndo(o *objmodel.Object, slot int) {
	g := tx.rt.Config().Granularity
	base := slot &^ (g - 1)
	e := undoEntry{obj: o, base: base}
	for i := 0; i < g && base+i < len(o.Slots); i++ {
		e.vals[i] = o.LoadSlot(base + i)
		e.n++
	}
	tx.undo = append(tx.undo, e)
}

// Write opens object o for writing at slot and stores v in place
// (open-for-write with strict two-phase locking and eager versioning).
func (tx *Txn) Write(o *objmodel.Object, slot int, v uint64) {
	tx.NWrites++
	tx.Poll(o)
	for attempt := 0; ; attempt++ {
		w := o.Rec.Load()
		var ver uint64
		acquired := false
		switch {
		case txrec.IsPrivate(w):
			// Thread-local: no locking, but rollback must still restore it.
			tx.logUndo(o, slot)
			o.StoreSlot(slot, v)
			if tr := tx.Tr; tr != nil {
				tr.Record(trace.EvWrite, tx.ID(), uint64(o.Ref()), slot, 0)
			}
			return
		case txrec.IsExclusive(w) && txrec.Owner(w) == tx.ID():
		case !txrec.IsShared(w):
			tx.ConflictWait(o, conflict.TxnWrite, attempt, w)
			continue
		default: // shared: acquire
			if tx.FI != nil && tx.Fault(faultinject.PreAcquire) {
				tx.RestartOn(uint64(o.Ref()))
			}
			if !tx.Acquire(o, w) {
				continue
			}
			ver, acquired = txrec.Version(w), true
			if tr := tx.Tr; tr != nil {
				tr.Record(trace.EvLockAcquire, tx.ID(), uint64(o.Ref()), slot, ver)
			}
			if prev, ok := tx.Reads.Get(o); ok && prev != ver {
				// Object changed between our read and this acquire: doomed.
				tx.RestartOn(uint64(o.Ref()))
			}
		}
		tx.logUndo(o, slot)
		o.StoreSlot(slot, v)
		tx.wrote = true
		tx.Publish(o, slot, v)
		if tr := tx.Tr; tr != nil {
			tr.Record(trace.EvWrite, tx.ID(), uint64(o.Ref()), slot, ver)
		}
		// The record is ours and the old value is logged.
		if tx.FI != nil && acquired && tx.Fault(faultinject.PostAcquire) {
			tx.RestartOn(uint64(o.Ref()))
		}
		return
	}
}

// WriteRef is Write for reference slots.
func (tx *Txn) WriteRef(o *objmodel.Object, slot int, r objmodel.Ref) {
	tx.Write(o, slot, uint64(r))
}

// Rollback implements txn.Strategy: it replays the undo log and releases
// every owned record with a version bump. A reaper rolls back an orphan
// that died before its commit point the same way.
func (tx *Txn) Rollback() {
	// Replay the undo log in reverse: later entries may shadow earlier ones,
	// so reverse order restores the oldest values last.
	for i := len(tx.undo) - 1; i >= 0; i-- {
		e := tx.undo[i]
		for j := 0; j < e.n; j++ {
			e.obj.StoreSlot(e.base+j, e.vals[j])
		}
	}
	tx.undo = tx.undo[:0]
	// Release every record, bumping versions so optimistic readers of our
	// speculative state fail validation (the bump is load-bearing: without
	// it, a reader that sampled the record, read a speculative slot value,
	// and re-checked the record could pass its double-check against the
	// restored word — an ABA).
	tx.Owned.Range(func(o *objmodel.Object, ver uint64) bool {
		tx.CoverBump(ver + 1) // the values are back: no version may lead the clock for it
		o.Rec.ReleaseOwned(ver)
		// The values are the ones this attempt read before it acquired the
		// record, so its read-set entry moves to the post-release version: a
		// Retry that waits on the read set must not wake on its own bump.
		if _, ok := tx.Reads.Get(o); ok {
			tx.Reads.Put(o, ver+1)
		}
		return true
	})
	tx.Owned.Reset()
}

// Validate implements txn.Strategy: validate the read set (the write set's
// records have been held since each first write). A write version is
// needed by a commit that stored in place to a shared object, and by a
// durable runtime (as the redo record's LSN) for any commit that stored
// anywhere, including private objects, which skip tx.wrote.
func (tx *Txn) Validate() bool {
	return tx.ValidateCommit(tx.wrote || tx.Durable() && len(tx.undo) > 0)
}

// Redo implements txn.Strategy: eager versioning wrote in place, so the
// current slot values under the undo spans are the redo image.
func (tx *Txn) Redo(dst []stmapi.RedoWrite) []stmapi.RedoWrite {
	for _, e := range tx.undo {
		for i := 0; i < e.n; i++ {
			dst = append(dst, stmapi.RedoWrite{
				Ref: e.obj.Ref(), Slot: e.base + i, Val: e.obj.LoadSlot(e.base + i),
			})
		}
	}
	return dst
}
