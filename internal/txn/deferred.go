package txn

import (
	"math"

	"repro/internal/faultinject"
	"repro/internal/objmodel"
	"repro/internal/trace"
	"repro/internal/txrec"
)

// NoLimit is LockWriteSet's version limit for a commit without a
// first-committer-wins rule: no record version is above it.
const NoLimit = math.MaxUint64

// Deferred is the kernel descriptor of a deferred-update runtime (lazy,
// multi-version): Txn plus the write buffer and the write set's object list,
// and on them the commit-time locking protocol (Sections 3.3, 3.4):
// acquire the write set's records in handle order, validate, pass the commit
// point, write back, release, and in quiescence mode wait out the attempts in
// flight. A multi-version commit differs in what it checks while locking
// (LockWriteSet's version limit) and what it installs, not in that skeleton,
// so the skeleton, its fault points and the reaper's release are here once;
// DESIGN.md §6 has the split between kernel and runtime step by step.
//
// It implements the Strategy methods that do not depend on the versioning
// (Begin, Reset, Rollback, ReapOrphan); a runtime with more to do at one of
// them declares its own and calls this one.
type Deferred struct {
	Txn

	// Buf holds the body's writes until commit (writebuf.go).
	Buf WriteBuf

	// Objs lists the write set's objects, in handle order once LockWriteSet
	// has sorted it. Which records are held, and at what version, is Owned:
	// the two differ by private objects, by entries not acquired yet, and by
	// an irrevocable body's read locks. Filled by Commit and emptied by
	// Release on every way out of it but a panic, and by Reset, so it is
	// empty between commits; the array is reused, so a steady-state commit
	// allocates nothing.
	Objs []*objmodel.Object
}

// Begin implements Strategy.
func (d *Deferred) Begin() { d.Buf.Reset() }

// Reset implements Strategy. A panic out of Commit leaves Objs filled; a
// pooled descriptor that kept it would acquire the old write set again at
// its next commit.
func (d *Deferred) Reset() {
	d.Buf.Reset()
	clear(d.Objs)
	d.Objs = d.Objs[:0]
}

// Rollback implements Strategy: restore whatever records the attempt still
// holds (an irrevocable body's pessimistic read locks, a failed irrevocable
// switch's partial upgrade — a commit that fails has already released). The
// buffer never reached memory and is dropped at the next begin.
func (d *Deferred) Rollback() { d.Release(false) }

// ReapOrphan implements Strategy. An uncommitted orphan's buffered writes
// never reached memory, so its records go back to their original words:
// nothing to undo, no version to burn. A committed orphan died inside the
// commit window with its write-back done (write-back precedes every
// post-commit fault point), so it is released as its own commit would have.
func (d *Deferred) ReapOrphan(committed bool) { d.Release(committed) }

// AddWrite lists o in the write set, once however many of its slots are
// buffered (write sets are small: a scan beats a second index).
func (d *Deferred) AddWrite(o *objmodel.Object) {
	for _, p := range d.Objs {
		if p == o {
			return
		}
	}
	d.Objs = append(d.Objs, o)
}

// Release gives back every record this attempt acquired. A committed
// release stamps them with the write version obtained before the commit
// point (WV is 0 for a commit that wrote nothing, degrading to the plain
// version bump): that publishes the new state to optimistic readers, and to
// a multi-version runtime's snapshot readers as the version the slots now
// hold. Otherwise the
// original words are restored — nothing reached memory. The holdings are
// cleared: a descriptor that later dies as an orphan must not present
// records it no longer owns to the reaper, and a pooled one must not pin
// the objects it wrote.
func (d *Deferred) Release(committed bool) {
	d.Owned.Range(func(o *objmodel.Object, sv uint64) bool {
		if committed {
			o.Rec.ReleaseOwnedAt(sv, d.WV)
		} else {
			o.Rec.Store(txrec.MakeShared(sv))
		}
		return true
	})
	d.Owned.Reset()
	clear(d.Objs)
	d.Objs = d.Objs[:0]
}

// LockWriteSet acquires the record of every listed object, sorted by handle
// so concurrent committers acquire in the same order (no deadlock). Private
// objects are written back without synchronization and records already held
// (an irrevocable transaction's) are kept. A record whose version is above
// limit was committed after the caller's snapshot and the first committer
// wins; the clock is raised over the lost version so the retry's snapshot
// covers it even when the release stamp outran the clock (two committers
// sharing a write version).
//
// false means the commit must fail: every record taken is back at its
// original word and the object responsible is blamed. A doom that landed
// while acquiring is honored here, up to the commit point; past it the
// victim has won the race and simply commits.
func (d *Deferred) LockWriteSet(limit uint64) bool {
	SortByRef(d.Objs)
	for _, o := range d.Objs {
		if txrec.IsPrivate(o.Rec.Load()) {
			continue
		}
		if _, mine := d.Owned.Get(o); mine {
			continue
		}
		for attempt := 0; ; attempt++ {
			w := o.Rec.Load()
			if !txrec.IsShared(w) {
				// An irrevocable committer never fails here: AcquireWait
				// claims (reaping a dead owner) and it re-probes.
				if !d.AcquireWait(o, attempt, w) {
					d.Release(false)
					return false
				}
				continue
			}
			if d.FI != nil && !d.fire(faultinject.PreAcquire, o) {
				return false
			}
			if ver := txrec.Version(w); ver > limit {
				d.NotifyStale(uint64(o.Ref()))
				d.Blame = uint64(o.Ref())
				d.Release(false)
				d.k.Clock.Raise(ver)
				return false
			}
			if !d.Acquire(o, w) {
				continue
			}
			if tr := d.Tr; tr != nil {
				tr.Record(trace.EvLockAcquire, d.id, uint64(o.Ref()), 0, txrec.Version(w))
			}
			if d.FI != nil && !d.fire(faultinject.PostAcquire, o) {
				return false
			}
			break
		}
	}
	if d.doomed.Load() && !d.Irrevocable {
		d.Release(false)
		return false
	}
	// An orphan here dies entering validation holding its whole write set:
	// the canonical deferred-update orphan — buffers never reach memory.
	return d.FI == nil || d.fire(faultinject.PreValidate, nil)
}

// fire fires the fault injector at point p, before the commit point, with o
// (nil at PreValidate) the object being acquired. false means the commit
// must fail: the records are restored and o is blamed. An orphan dies
// holding whatever it acquired so far (Owned records it) until a reaper
// steals it.
func (d *Deferred) fire(p faultinject.Point, o *objmodel.Object) bool {
	if !d.Fault(p) {
		return true
	}
	if o != nil {
		d.Blame = uint64(o.Ref())
	}
	d.Release(false)
	return false
}

// Serialize passes the commit point. The commit window opens here, so the
// descriptor's tracer records trace.EvCommitPoint here, carrying WV: a
// synchronous Sink that blocks on it holds the commit with nothing written
// back yet.
func (d *Deferred) Serialize() {
	d.CommitPoint()
	if tr := d.Tr; tr != nil {
		tr.Record(trace.EvCommitPoint, d.id, 0, 0, d.WV)
	}
}

// FireCommitted fires the two fault points inside the Figure 4 window:
// logically committed, write-back done, records still held. An Abort there
// is ignored (the transaction has committed); an orphan dies with NO
// cleanup, in flight until a reaper releases it at the write version, or a
// quiescing committer reaps it inline. Callers guard it with FI != nil like
// every other injection point.
func (d *Deferred) FireCommitted() {
	d.Fault(faultinject.PostCommitPoint)
	d.Fault(faultinject.PreRelease)
}

// ReleaseCommitted ends the commit window: release at the write version and
// account the commit, which surrenders the irrevocable token and ends the
// attempt before any waiting.
func (d *Deferred) ReleaseCommitted() {
	d.Release(true)
	d.Committed()
}
