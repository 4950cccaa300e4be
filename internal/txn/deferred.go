package txn

import (
	"math"

	"repro/internal/faultinject"
	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/trace"
	"repro/internal/txrec"
)

// NoLimit is LockWriteSet's version limit for a commit without a
// first-committer-wins rule: no record version is above it.
const NoLimit = math.MaxUint64

// Deferred is the kernel descriptor of a deferred-update runtime (lazy,
// multi-version): Txn plus the write buffer, and on them the steps of the
// kernel's commit protocol (commit.go) that buffering shares: acquire the
// write set's records in buffer order (AcquireWriteSet), validate, hand
// the buffer to the log as the redo image, and give back what a failed or
// abandoned commit took. A multi-version commit differs in what it checks
// while locking (AcquireWriteSet's version limit) and what it installs, not
// in that skeleton; DESIGN.md §6 has the split between kernel and runtime
// step by step.
//
// It implements the Strategy methods that do not depend on the versioning
// (Begin, Reset, LockWriteSet, Validate, Redo, Rollback); a runtime with
// more to do at one of them declares its own and calls this one.
type Deferred struct {
	Txn

	// Buf holds the body's writes until commit (writebuf.go). Its entries
	// are the write set: LockWriteSet acquires their objects' records, and
	// which are held, at what version, is Owned (the two differ by private
	// objects, by entries not acquired yet, and by an irrevocable body's
	// read locks).
	Buf WriteBuf
}

// Begin implements Strategy.
func (d *Deferred) Begin() { d.Buf.Reset() }

// Reset implements Strategy: a pooled descriptor must not pin the objects
// its last attempt wrote.
func (d *Deferred) Reset() { d.Buf.Reset() }

// Rollback implements Strategy: restore whatever records the attempt still
// holds (an irrevocable body's pessimistic read locks, a failed irrevocable
// switch's partial upgrade, a failed validation's write set, an orphan's
// write set). The buffer never reached memory and is dropped at the next
// begin.
func (d *Deferred) Rollback() { d.Restore() }

// Restore gives back every record this attempt acquired at its original
// word, since nothing reached memory. The holdings are cleared: a
// descriptor that later dies as an orphan must not present records it no
// longer owns to the reaper.
func (d *Deferred) Restore() {
	d.Owned.Range(func(o *objmodel.Object, sv uint64) bool {
		o.Rec.Store(txrec.MakeShared(sv))
		return true
	})
	d.Owned.Reset()
}

// LockWriteSet implements Strategy for a commit without a
// first-committer-wins rule: AcquireWriteSet with no version limit.
func (d *Deferred) LockWriteSet() bool { return d.AcquireWriteSet(NoLimit) }

// Validate implements Strategy for a deferred-update runtime that validates
// its read set: a commit that buffered anything needs a write version.
func (d *Deferred) Validate() bool { return d.ValidateCommit(len(d.Buf.Ents) > 0) }

// AcquireWriteSet acquires the record of every object the buffer writes, in
// buffer order, the order the body first wrote each slot. Private objects
// are written back without synchronization, and a record already
// Exclusive(self) — an irrevocable body's read lock, or an object whose
// earlier slot this pass took — is kept. A record whose version is above
// limit was committed after the caller's snapshot and the first committer
// wins; the clock is raised over the lost version so the retry's snapshot
// covers it even when the release stamp outran the clock (two committers
// sharing a write version).
//
// A record held by someone else is one conflict round (AcquireWait), taken
// by a revocable committer holding nothing: it restores every record it
// took, waits, and starts the pass again. attempt counts the rounds across
// passes, so SelfAbortAfter and the policy bound the commit as they bound
// a body's access. The irrevocable token holder keeps its holdings and
// claims the record.
//
// That is the whole deadlock argument, and it needs no acquire order: a
// cycle of waits needs a waiter that holds a record, and only the token
// holder ever waits holding one. The token is singular, so there is at
// most one such waiter, and every record it waits on belongs to a
// revocable committer that is either acquiring (and releases at its own
// next conflict, or is doomed by the claim) or past its last acquisition
// and finishing without waiting on a record, or to a non-transactional
// barrier, which holds one record and never waits.
//
// false means the commit must fail: every record taken is back at its
// original word and the object responsible is blamed. A doom that landed
// while acquiring is honored here, up to the commit point; past it the
// victim has won the race and simply commits.
func (d *Deferred) AcquireWriteSet(limit uint64) bool {
	self := txrec.MakeExclusive(d.id)
	ents := d.Buf.Ents
	attempt := 0
	for i := 0; i < len(ents); i++ {
		o := ents[i].Obj
		w := o.Rec.Load()
		if w == self || txrec.IsPrivate(w) {
			continue
		}
		if !txrec.IsShared(w) {
			revocable := !d.Irrevocable
			if revocable {
				d.Restore() // wait holding nothing
			}
			if !d.AcquireWait(o, attempt, w) {
				return false
			}
			attempt++
			if revocable {
				i = -1 // start the pass again
			} else {
				i-- // re-probe o
			}
			continue
		}
		if d.FI != nil && !d.fire(faultinject.PreAcquire, o) {
			return false
		}
		if ver := txrec.Version(w); ver > limit {
			d.NotifyStale(uint64(o.Ref()))
			d.Blame = uint64(o.Ref())
			d.Restore()
			d.k.Clock.Raise(ver)
			return false
		}
		if !d.Acquire(o, w) {
			i-- // lost the CAS: re-probe o
			continue
		}
		if tr := d.Tr; tr != nil {
			tr.Record(trace.EvLockAcquire, d.id, uint64(o.Ref()), 0, txrec.Version(w))
		}
		if d.FI != nil && !d.fire(faultinject.PostAcquire, o) {
			return false
		}
	}
	if d.doomed.Load() && !d.Irrevocable {
		d.Restore()
		return false
	}
	return true
}

// fire fires the fault injector at point p, an acquire of o. false means
// the commit must fail: the records are restored and o is blamed. An
// orphan dies holding whatever it acquired so far (Owned records it) until
// a reaper steals it.
func (d *Deferred) fire(p faultinject.Point, o *objmodel.Object) bool {
	if !d.Fault(p) {
		return true
	}
	d.Blame = uint64(o.Ref())
	d.Restore()
	return false
}

// WriteEntry stores the buffered entry e into its slot past the commit point
// and records trace.EvWriteBack, carrying WV: a runtime's WriteBack is its
// order over these. The store is a publication point (Publish).
func (d *Deferred) WriteEntry(e *BufEntry) {
	d.Publish(e.Obj, e.Slot, e.Val)
	e.Obj.StoreSlot(e.Slot, e.Val)
	if tr := d.Tr; tr != nil {
		tr.Record(trace.EvWriteBack, d.id, uint64(e.Obj.Ref()), e.Slot, d.WV)
	}
}

// Redo implements Strategy: after write-back the buffer's entries carry
// exactly the values the slots now hold.
func (d *Deferred) Redo(dst []stmapi.RedoWrite) []stmapi.RedoWrite {
	for _, e := range d.Buf.Ents {
		dst = append(dst, stmapi.RedoWrite{Ref: e.Obj.Ref(), Slot: e.Slot, Val: e.Val})
	}
	return dst
}
