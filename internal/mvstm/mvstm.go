// Package mvstm implements a timestamp-ordered multi-version STM over the
// same heap, transaction records, and commit clock as the eager and lazy
// runtimes. Where those runtimes make every read pay for isolation —
// per-read version validation plus a commit-time read-set check — mvstm
// moves the whole cost to writers: a committing writer saves the image it is
// about to overwrite, stamped by the commit clock, and readers pick a
// snapshot timestamp at begin and then read with no validation, no aborts,
// and no per-read writes to shared metadata.
//
// Transactions run under snapshot isolation: every read (in a read-only OR
// a writing transaction) is satisfied from the newest committed version at
// or below the begin snapshot rv, and writers are serialized by
// first-committer-wins conflict detection — a writer whose write-set record
// carries a version above rv lost a race with a concurrent committer and
// aborts. There is no read-set validation at all, which is exactly what
// snapshot isolation gives up: two transactions may read overlapping data
// and commit disjoint writes based on mutually stale reads (write skew; see
// the Figure 6 matrix's SI/MV column in internal/litmus). In exchange,
// read-only transactions — AtomicRead, or Atomic bodies that never write —
// commit with zero aborts and zero retries under any writer storm.
//
// The newest version of an object is the object: its slots, at the version
// in its Shared record. A snapshot that covers that version reads the slots
// under the record seqlock, touching no chain node; only a snapshot older
// than the record walks the object's version chain, which holds the images
// the slots had before (objmodel.MVVersion).
//
// Writers buffer slot-granular, in a slice in program order, and commit
// like the lazy runtime: acquire the write set's records in buffer order
// with a first-committer-wins check, advance the clock to obtain the write
// version, pass the commit point, save each held object's pre-image at the
// head of its chain (over a head no snapshot can need any more, else on a
// fresh node), pruning the chain while there, and write the buffered values
// back to the slots in program order; finally release the records stamped
// with the write version. Versions strictly decrease along each chain and
// the head's is below the record's.
//
// Dead versions are reclaimed against a watermark: the smallest begin
// snapshot among live transactions (tracked in the same registry
// ReapDead sweeps). A long-running snapshot reader therefore pins exactly
// the history it might still read, and nothing more; when it finishes, the
// next install on an object prunes past its snapshot. See gc.go.
//
// Everything that is not versioning is the transaction kernel, package txn,
// which this runtime embeds and plugs into through txn.Strategy; that
// includes the commit protocol, and the write buffer, the commit-time
// locking and the redo image it shares with the lazy runtime
// (txn.Deferred). What is here is the versioning: the Read and Write
// barriers, the version chains, the commit steps it has a part in (the
// gate and first-committer-wins around the lock, the stamp, the install,
// the write-back in program order, the gate exit), and GC. The kernel's
// lifecycle reads differently here in four places:
//
//   - Bodies own nothing. Reads resolve against slots and version chains and
//     writes stay buffered, so an orphan that died mid-body holds no records
//     at all — the reaper only unregisters it (and unpins its GC snapshot).
//
//   - An orphan that died inside the commit window holds write-set records.
//     The kernel's reclaim restores them before the commit point (no
//     versions were installed, no state escaped) and after it completes
//     the commit by the phase it reached: the install if it was not made,
//     the write-back, and the release at the orphan's write version. No
//     clock step goes with that release: snapshot readers never validate,
//     and a writer that meets the released version raises the clock on
//     contact.
//
//   - The commit gate, a flag on the descriptor (Txn.inCommit), is lowered
//     by the commit's Exit on every way out: a commit's own, a failed
//     commit's Rollback, and the unwind of a panic or of a simulated thread
//     death (the kernel calls Exit for both), so no committer that has gone
//     leaves it raised.
//
//   - Irrevocable mode takes no read locks. The switch acquires the
//     singular token and then scans the registry until it has seen every
//     descriptor outside the gate (a committer raises its flag before it
//     looks at the token, so one of the two sees the other); with nothing
//     else committing, the transaction reads the newest version of everything
//     (RV = maxSnapshot) and first-committer-wins can never fail it, which
//     preserves the no-abort guarantee without locking a single record
//     during the body.
package mvstm

import (
	"context"
	"math"
	"sync/atomic"

	"repro/internal/conflict"
	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/txrec"
)

// gcEvery is the number of writing commits a descriptor makes between
// refreshes of the published watermark its installs prune against; the
// commit that refreshes it (a registry scan) also sweeps the chains it
// pushes on. A commit that meets a head the cached watermark is too old to
// reclaim scans for a fresh horizon of its own, unpublished (see gc.go).
const gcEvery = 64

// Runtime is a multi-version STM instance bound to a heap. The embedded
// kernel supplies Atomic, AtomicCtx, AtomicIrrevocable, Heap, Stats, the
// setters and ReapDead; with AtomicRead, *Runtime is an
// stmapi.DurableRuntime and an stmapi.ReadOnlyRuntime. The kernel's registry
// is also the GC's view of live snapshots (the watermark is the minimum
// pinned snapshot over registered descriptors).
//
// Configuration is the cross-runtime stmapi.CommonConfig, two of whose
// knobs read differently here: Granularity is accepted but buffering is
// always slot-granular (a multi-version runtime has no reason to
// manufacture the granular anomalies), and NoCommitClock is ignored — the
// clock is what stamps versions, so it cannot be turned off.
type Runtime struct {
	txn.Kernel

	// gcEvery is the package's gcEvery, lowered by tests to exercise the
	// refresh; negative disables pruning at install, on-demand horizons
	// included (tests drive GC() directly).
	gcEvery int

	// watermark is the highest reclamation watermark computed so far, what
	// installs prune against (gc.go); its distance behind the clock is
	// Stats().WatermarkLag. A refreshing commit writes it, so it is padded
	// off the kernel's last cache line, which every transaction reads at
	// begin (tracer, injector, sink) and every writing commit at the gate
	// (the irrevocable token).
	_         [64]byte
	watermark atomic.Uint64
}

// New creates a multi-version Runtime over heap. Invalid configurations are
// rejected with a panic.
func New(heap *objmodel.Heap, cfg stmapi.CommonConfig) *Runtime {
	rt := &Runtime{gcEvery: gcEvery}
	rt.Init("mvstm", heap, cfg, func() txn.Strategy {
		tx := &Txn{rt: rt}
		tx.snap.Store(1)
		return tx
	})
	rt.ClockOn = true // NoCommitClock is ignored: the clock is what stamps versions
	return rt
}

func init() {
	txn.Register("mvstm", func(heap *objmodel.Heap, cfg stmapi.CommonConfig) stmapi.Runtime {
		return New(heap, cfg)
	})
}

// maxSnapshot is the irrevocable RV: with the commit gate drained and the
// token held, nothing else commits, so reading the newest version of
// everything is the (only) serializable view.
const maxSnapshot = math.MaxUint64

// Txn is a multi-version transaction descriptor: the kernel's
// deferred-update descriptor, whose buffer is used slot-granular: one entry
// per written slot, in the order the body first wrote each. Its RV is the
// begin snapshot — reads see the newest version at or below it — and its WV,
// obtained from the clock before the commit point, is what every release
// path stamps records with. Pooled across Atomic calls; user code must not
// retain one past the body.
type Txn struct {
	txn.Deferred
	rt *Runtime

	// snap is the GC pin, readable by the collector through the registry:
	// the oldest snapshot this descriptor may still read from. It is
	// stored low (1) before the registry makes the descriptor reachable — at
	// allocation, and again whenever it returns to the pool — so a
	// concurrent watermark scan can never race past a snapshot it did not
	// see, then refined to RV at each begin (over-pinning is safe). Between
	// a rollback and the next begin, and from a commit's gate exit until
	// the descriptor is pooled, when nothing is read, it is maxSnapshot:
	// pinned nowhere. See gc.go for the full ordering argument.
	snap atomic.Uint64

	// readOnly marks an AtomicRead transaction: writes panic, commit takes
	// the zero-metadata path, and any abort is counted as a read-only
	// abort (the litmus suite asserts there are none).
	readOnly bool

	// refreshIn counts this descriptor's writing commits down to its next
	// watermark refresh (gc.go); kept across transactions.
	refreshIn int

	// inCommit is the commit gate: raised while this descriptor is inside a
	// writing commit, by its own goroutine, and lowered by Exit. An
	// irrevocable switch takes the kernel's token, waits until it has seen
	// every registered descriptor's flag down (drainGate), and then runs
	// alone.
	inCommit atomic.Bool
}

// Begin implements txn.Strategy.
func (tx *Txn) Begin() {
	tx.Deferred.Begin()
	if tx.snap.Load() == maxSnapshot {
		// Unpinned since the rollback: pin low, then take the snapshot the
		// pin covers (gc.go).
		tx.snap.Store(tx.rt.watermark.Load())
		tx.RV = tx.rt.Clock.Load()
	}
	tx.snap.Store(tx.RV) // refine the pin; the previous value was <= RV
}

// Reset implements txn.Strategy.
func (tx *Txn) Reset() {
	tx.snap.Store(1) // unregistered now; pinned low for when it next is
	tx.readOnly = false
	tx.Deferred.Reset()
}

// Read returns the transaction's view of o's slot: the private write buffer
// if this transaction wrote the slot, otherwise the newest committed
// version at or below the begin snapshot. Snapshot reads validate nothing
// and touch no shared metadata; they cannot abort and never invoke the
// conflict handler, so readers are invisible to the causal recorder's
// conflict DAG.
func (tx *Txn) Read(o *objmodel.Object, slot int) uint64 {
	tx.NReads++
	if !tx.readOnly {
		tx.Poll(o)
		if len(tx.Buf.Ents) > 0 {
			if i := tx.Buf.Find(o, slot); i >= 0 {
				if tr := tx.Tr; tr != nil {
					tr.Record(trace.EvRead, tx.ID(), uint64(o.Ref()), slot, 0)
				}
				return tx.Buf.Ents[i].Val
			}
		}
	}
	return tx.snapshotRead(o, slot)
}

// snapshotRead resolves a read against the object: its slots when the
// snapshot covers the version they hold, its version chain when it does not.
// The record word is loaded first and says which.
//
// Shared at a version at or below RV: the slots are the image the snapshot
// wants, read under the record seqlock — an unchanged word across the load
// proves no write-back in between. Nothing newer that the snapshot must see
// can be in flight: a committer holds the record Exclusive from before it
// obtains its write version until after its write-back, so one that acquires
// after this load stamps above the clock RV was read from.
//
// Shared at a version above RV: the image was overwritten, and each commit
// that overwrote it pushed what it overwrote on the chain before releasing;
// loading the record first makes those pushes visible to the chain load.
//
// Exclusive: a committer advances the clock before its write-back, so a
// transaction that begins in that window gets RV at or above the in-flight
// write version and must see values that are not in the slots yet, while one
// that began earlier must see the image being overwritten. The record holds
// the owner, not the version, so the reader cannot tell which and waits for
// the release (bounded by the owner's commit; dead owners are reaped
// inline) — except when a chain node is above RV. Nodes are pushed by record
// holders only, with rising timestamps, so such a node proves the state at
// RV was superseded before it and sits below it on the chain, immutable
// whatever the owner is doing. Without the wait, a writer reads the stale
// slots and then passes first-committer-wins because the lost commit's
// stamp equals RV rather than exceeding it — a lost update (the crash
// figure's conservation check catches exactly this).
func (tx *Txn) snapshotRead(o *objmodel.Object, slot int) uint64 {
	for attempt := 0; ; attempt++ {
		w := o.Rec.Load()
		switch {
		case txrec.IsPrivate(w):
			// Traced even though no snapshot logic applies: the soundness
			// oracle audits private (elided) accesses against the manifest.
			if tr := tx.Tr; tr != nil {
				tr.Record(trace.EvRead, tx.ID(), uint64(o.Ref()), slot, 0)
			}
			return o.LoadSlot(slot)
		case txrec.IsShared(w):
			ver := txrec.Version(w)
			if ver <= tx.RV {
				v := o.LoadSlot(slot)
				if o.Rec.Load() != w {
					continue
				}
				return tx.snapshotHit(o, slot, ver, v)
			}
			if n := versionAt(o.MVHead.Load(), tx.RV); n != nil {
				return tx.snapshotHit(o, slot, n.TS.Load(), n.Vals[slot].Load())
			}
			// Committed after the snapshot with the old image on no chain:
			// the writer was a foreign runtime or a non-transactional
			// barrier, and the snapshot cannot be served. Unreachable in pure
			// multi-version runs (a chain bottoms out at or below the
			// watermark). Catch the clock up and restart with a snapshot
			// that covers the record. For a read-only transaction this is
			// the one abort path there is, kept honest by the ReadOnlyAborts
			// counter the litmus suite pins to zero.
			tx.rt.Clock.Raise(ver)
			tx.NotifyStale(uint64(o.Ref()))
			tx.RestartOn(uint64(o.Ref()))
		default:
			// Exclusive (a committer, or a foreign-runtime owner) or
			// exclusive-anonymous (a non-transactional writer, or GC).
			if head := o.MVHead.Load(); head != nil && head.TS.Load() > tx.RV {
				if n := versionAt(head, tx.RV); n != nil {
					return tx.snapshotHit(o, slot, n.TS.Load(), n.Vals[slot].Load())
				}
			}
			tx.waitOwner(o, w, attempt)
		}
	}
}

// versionAt returns the newest node at or below rv on the chain from head,
// or nil.
func versionAt(head *objmodel.MVVersion, rv uint64) *objmodel.MVVersion {
	for n := head; n != nil; n = n.Prev() {
		if n.TS.Load() <= rv {
			return n
		}
	}
	return nil
}

// snapshotHit accounts a snapshot read served at version ver.
func (tx *Txn) snapshotHit(o *objmodel.Object, slot int, ver, v uint64) uint64 {
	tx.NSnapReads++
	if tr := tx.Tr; tr != nil {
		tr.Record(trace.EvRead, tx.ID(), uint64(o.Ref()), slot, ver)
	}
	return v
}

// waitOwner parks a snapshot read behind a record owner for one wait round:
// a confirmed-dead owner is reaped inline instead (so readers never stall on
// an orphan), and a transactional reader still honors dooms, cancellation,
// and the self-abort threshold while it waits. Read-only transactions wait
// unconditionally — waiting is not aborting, so the zero-abort guarantee of
// the snapshot read path survives.
func (tx *Txn) waitOwner(o *objmodel.Object, w uint64, attempt int) {
	if txrec.IsExclusive(w) {
		if victim := tx.rt.FindStamp(txrec.Owner(w)); victim != nil && victim.Dead() {
			tx.rt.Reap(victim, tx.ID(), uint64(o.Ref()))
			return
		}
	}
	if !tx.readOnly {
		tx.Poll(o) // a doom restarts, a cancelled context cancels
		if attempt >= tx.rt.Config().SelfAbortAfter && !tx.Irrevocable {
			tx.RestartOn(uint64(o.Ref()))
		}
	}
	conflict.WaitAttempt(attempt)
}

// ReadRef is Read for reference slots.
func (tx *Txn) ReadRef(o *objmodel.Object, slot int) objmodel.Ref {
	return objmodel.Ref(tx.Read(o, slot))
}

// Write buffers a store to o's slot. Always slot-granular: a span never
// snapshots a neighbouring slot, so the Section 2.4 granular anomalies
// cannot occur regardless of the configured granularity.
func (tx *Txn) Write(o *objmodel.Object, slot int, v uint64) {
	if tx.readOnly {
		panic("mvstm: write inside a read-only transaction (AtomicRead)")
	}
	tx.NWrites++
	tx.Poll(o)
	tx.Buf.Put(o, slot, v)
	if tr := tx.Tr; tr != nil {
		tr.Record(trace.EvWrite, tx.ID(), uint64(o.Ref()), slot, 0)
	}
}

// WriteRef is Write for reference slots.
func (tx *Txn) WriteRef(o *objmodel.Object, slot int, r objmodel.Ref) {
	tx.Write(o, slot, uint64(r))
}

// RetryWait implements txn.Strategy. With no read set to wait on, "re-
// execution may observe something new" is approximated conservatively by
// the commit clock moving past the begin snapshot: every committed write
// advances the clock, so the wait wakes on any commit (a superset of the
// read-set wakeups the other runtimes give).
func (tx *Txn) RetryWait(ctx context.Context) error {
	for a := 0; tx.rt.Clock.Load() <= tx.RV; a++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		conflict.WaitAttempt(a)
	}
	return nil
}

// enterCommit admits a writing transaction into the commit protocol,
// waiting out an irrevocable token holder. Returns false when the attempt
// must abort instead (cancelled or doomed while waiting).
//
// The flag goes up before the second look at the token, and a switch takes the
// token before it scans the flags (Dekker; sync/atomic is sequentially
// consistent): the switch sees this committer, or this committer the switch.
// The first look keeps a waiter's flag from flickering at the holder's scan.
func (rt *Runtime) enterCommit(tx *Txn) bool {
	for a := 0; ; a++ {
		if tok := rt.IrrevocableHolder(); tok == 0 || tok == tx.ID() {
			tx.inCommit.Store(true)
			if tok = rt.IrrevocableHolder(); tok == 0 || tok == tx.ID() {
				return true
			}
			tx.inCommit.Store(false) // lost the race to an irrevocable switch
		}
		if tx.Ctx != nil && tx.Ctx.Err() != nil {
			return false
		}
		if tx.Doomed() && !tx.Irrevocable {
			return false
		}
		rt.ReapDead() // a dead token holder must not gate commits forever
		conflict.WaitAttempt(a)
	}
}

// drainGate waits, one registered descriptor after the other, until it has
// seen each outside the commit gate, reaping the dead between looks at a
// raised flag. Every commit inside the gate when the scan starts has left it
// when drainGate returns.
func (rt *Runtime) drainGate() {
	rt.ForEach(func(k *txn.Txn) bool {
		tx := k.Self().(*Txn)
		for a := 0; tx.inCommit.Load(); a++ {
			rt.ReapDead()
			conflict.WaitAttempt(a)
		}
		return true
	})
}

// ReadOnly implements txn.Strategy. A body that never wrote — AtomicRead,
// or any body without writes; the read-only hint is the absence of writes,
// no declaration needed — commits on the zero-metadata path: no gate, no
// clock, no records, no quiescence wait, because its snapshot reads were
// consistent by construction the moment they happened.
func (tx *Txn) ReadOnly() bool { return tx.readOnly || len(tx.Buf.Ents) == 0 }

// LockWriteSet implements txn.Strategy: enter the commit gate, then acquire
// the write set's records in buffer order with the first-committer-wins
// check. A record version above the begin snapshot means a concurrent
// committer got there first (an irrevocable committer's snapshot is
// maxSnapshot: nothing can). There is no other validation step: snapshot
// reads need no re-checking — that is the snapshot-isolation trade (write
// skew admitted, see the litmus matrix's MV column).
func (tx *Txn) LockWriteSet() bool {
	return tx.rt.enterCommit(tx) && tx.AcquireWriteSet(tx.RV)
}

// Validate implements txn.Strategy: obtain the write version before the
// commit point, so every release path (normal, or completing for an
// orphan) stamps the same version.
func (tx *Txn) Validate() bool {
	tx.Stamp()
	return true
}

// Install implements txn.Strategy: save every held object's pre-image at
// its chain's head (a private object keeps no history), under the
// Exclusive records, which keep snapshot readers off the slots
// (snapshotRead).
func (tx *Txn) Install() {
	horizon := tx.pruneHorizon()
	tx.Owned.Range(func(o *objmodel.Object, sv uint64) bool {
		tx.install(o, sv, &horizon)
		return true
	})
}

// WriteBack implements txn.Strategy: the buffered slots in program order.
// Non-transactional readers under weak atomicity go straight to the slots
// and see the lazy write-back window (the litmus MI programs depend on it).
func (tx *Txn) WriteBack() {
	for k := range tx.Buf.Ents {
		tx.WriteEntry(&tx.Buf.Ents[k])
	}
}

// Exit implements txn.Strategy: leave the gate, so no quiescence or fsync
// wait holds it, and unpin: a committed attempt reads nothing more, so
// neither wait holds history back (gc.go). A second call, the kernel's
// after a cut-short commit, costs a load and a store to the pin.
func (tx *Txn) Exit() {
	if tx.inCommit.Load() {
		tx.inCommit.Store(false)
	}
	tx.snap.Store(maxSnapshot)
}

// Rollback implements txn.Strategy: give back the records a commit cut
// short still holds (a failed commit restored its own), leave the gate,
// and unpin: an aborted attempt reads nothing until it begins again, so it
// holds no history back while it waits to retry. The buffer is dropped at
// the next begin.
func (tx *Txn) Rollback() {
	tx.Restore()
	tx.Exit()
	if tx.readOnly {
		tx.NReadOnlyAborts++
	}
}

// BecomeIrrevocable switches the transaction to irrevocable mode. The
// multi-version switch is lock-free with respect to the heap: the kernel
// acquires the singular token, then LockReadSet drains the commit gate and
// widens the snapshot. Restarting is still legal up to the switch;
// afterwards the transaction cannot abort. Panics inside a read-only
// transaction.
func (tx *Txn) BecomeIrrevocable() {
	if tx.readOnly {
		panic("mvstm: BecomeIrrevocable inside a read-only transaction (AtomicRead)")
	}
	tx.Txn.BecomeIrrevocable()
}

// LockReadSet implements txn.Strategy. With the token held no new committer
// can enter the gate; drain the ones already inside — each is bounded by its
// own commit (or by the panic unwind of a simulated death, which also
// releases the gate) — and widen the snapshot to maxSnapshot: running
// alone, the newest version of everything is a consistent (and the only
// serializable) view, so no record is locked and no read needs re-checking.
func (tx *Txn) LockReadSet() bool {
	tx.rt.drainGate()
	tx.RV = maxSnapshot
	return true
}

// AtomicRead executes body as a read-only snapshot transaction
// (stmapi.ReadOnlyRuntime): writes and BecomeIrrevocable panic, and the body
// runs exactly once — snapshot reads cannot conflict, so there is nothing to
// retry.
func (rt *Runtime) AtomicRead(body func(stmapi.Txn) error) error {
	return rt.Run(nil, -1, func(k *txn.Txn) error {
		tx := k.Self().(*Txn)
		tx.readOnly = true
		return body(tx)
	})
}
