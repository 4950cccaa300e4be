package txn

import (
	"repro/internal/conflict"
	"repro/internal/objmodel"
	"repro/internal/trace"
	"repro/internal/txrec"
)

// FindStamp returns the live descriptor whose current incarnation ID is id,
// or nil if the owner is no longer active.
func (k *Kernel) FindStamp(id uint64) *Txn { return k.reg.findStamp(id) }

// doom marks victim for abort-other: its doom flag is set and it restarts
// at its next access, conflict wait, or commit. Purely advisory — the
// victim's own thread performs the rollback, so the txrec state machine
// never sees a forcible release. Irrevocable transactions are never doomed
// (that is the whole guarantee; the caller keeps waiting and the token
// holder finishes). The mark is a CAS so a doom is issued, counted and
// traced once per victim attempt however many contenders pile on. Reports
// whether this call marked the victim.
func (tx *Txn) doom(victim *Txn, ref uint64) bool {
	if victim.irrevStamp.Load() || !victim.doomed.CompareAndSwap(false, true) {
		return false
	}
	tx.batch.d[cDoomsIssued]++
	if tr := tx.Tr; tr != nil {
		tr.Record(trace.EvDoom, tx.id, ref, 0, victim.stamp.Load())
	}
	return true
}

// campWait waits one round on a contended record with spins and yields,
// never an exponential sleep: the caller has won (or cannot lose) the
// arbitration and the owner releases at its next access or commit. Sleeping
// past that release lets a third party (or the restarting victim itself)
// re-acquire and force another doom round — the flight recorder shows this
// as long consecutive doomed-by chains against whoever holds the record.
func campWait(attempt int) {
	if attempt > 9 {
		attempt = 9 // clamp into WaitAttempt's spin/yield bands
	}
	conflict.WaitAttempt(attempt)
}

// traceConflict records a conflict on o for the flight recorder; the Ver
// field carries the owning transaction's ID, the waits-for edge.
func (tx *Txn) traceConflict(o *objmodel.Object, rec txrec.Word) {
	if tr := tx.Tr; tr != nil {
		ref := uint64(o.Ref())
		var owner uint64
		if txrec.IsExclusive(rec) {
			owner = txrec.Owner(rec)
		}
		tr.Record(trace.EvConflict, tx.id, ref, 0, owner)
		tr.Hot().BumpConflict(ref)
	}
}

// irrevClaim is the irrevocable transaction's conflict step. It can neither
// restart nor lose an arbitration, so cancellation, dooms and the self-abort
// cap are skipped: a dead owner is reclaimed on the spot, a live one is
// doomed directly (the token is singular, so the owner is never itself
// irrevocable), and the claimant waits for the record to free.
func (tx *Txn) irrevClaim(o *objmodel.Object, rec txrec.Word, attempt int) {
	if txrec.IsExclusive(rec) {
		if victim := tx.k.reg.findStamp(txrec.Owner(rec)); victim != nil && victim != tx {
			if victim.dead.Load() {
				tx.k.Reap(victim, tx.id, uint64(o.Ref()))
				return
			}
			tx.doom(victim, uint64(o.Ref()))
		}
	}
	conflict.WaitAttempt(attempt)
}

// resolve arbitrates one conflict on o, whose record word rec this
// transaction could not acquire or read through: it builds the policy's
// Info, steals from an owner whose goroutine died (returning Wait so the
// caller re-probes instead of waiting on a lock nobody will ever release),
// and carries out a SelfAbort's accounting or an AbortOther's doom and camp.
// The caller maps the decision onto its own control flow: inside a body
// (ConflictWait) SelfAbort restarts; inside commit-time acquisition the
// runtime releases and fails the commit.
func (tx *Txn) resolve(o *objmodel.Object, kind conflict.Kind, attempt int, rec txrec.Word) conflict.Decision {
	tx.karma.Add(1) // enduring a conflict earns priority under Karma-style policies
	info := conflict.Info{
		Kind: kind, Attempt: attempt, Record: rec,
		Self: tx.id, SelfPrio: tx.karma.Load(),
	}
	var owner *Txn
	if txrec.IsExclusive(rec) {
		info.Owner = txrec.Owner(rec)
		if owner = tx.k.reg.findStamp(info.Owner); owner != nil {
			if owner.dead.Load() {
				tx.k.Reap(owner, tx.id, uint64(o.Ref()))
				return conflict.Wait
			}
			info.OwnerActive = true
			info.OwnerPrio = owner.karma.Load()
			info.OwnerIrrevocable = owner.irrevStamp.Load()
		}
	}
	d := tx.k.cfg.Handler.Resolve(info)
	switch d {
	case conflict.SelfAbort:
		tx.batch.d[cSelfAborts]++
		if tr := tx.Tr; tr != nil {
			tr.Record(trace.EvSelfAbort, tx.id, uint64(o.Ref()), 0, 0)
		}
	case conflict.AbortOther:
		// A nil owner already finished: the record is released or about to be.
		if owner != nil && owner.stamp.Load() == info.Owner {
			tx.doom(owner, uint64(o.Ref()))
		}
		campWait(attempt)
	}
	// conflict.Wait: the policy performed its own backoff; the caller re-probes.
	return d
}

// ConflictWait is the in-body conflict step of an access that found o's
// record (word rec) held by someone else; the barrier re-probes the record
// when it returns. attempt counts the barrier's consecutive failures on
// this access.
func (tx *Txn) ConflictWait(o *objmodel.Object, kind conflict.Kind, attempt int, rec txrec.Word) {
	tx.traceConflict(o, rec)
	if tx.Irrevocable {
		tx.irrevClaim(o, rec, attempt)
		return
	}
	if tx.Ctx != nil && tx.Ctx.Err() != nil {
		tx.cancel()
	}
	if !tx.mayContend(attempt) || tx.resolve(o, kind, attempt, rec) == conflict.SelfAbort {
		tx.RestartOn(uint64(o.Ref()))
	}
}

// mayContend reports whether a revocable transaction may keep contending
// after attempt failed probes: not once it is doomed or has reached the
// self-abort cap (SelfAbortAfter breaks writer-writer deadlocks under
// wait-only policies).
func (tx *Txn) mayContend(attempt int) bool {
	return !tx.doomed.Load() && attempt < tx.k.cfg.SelfAbortAfter
}

// Acquire takes o's record, whose Shared word w the caller just loaded, and
// enters it in Owned, where commit and every release path find it. false
// means the CAS lost a race. Eager's write barrier, the deferred-update
// commit (LockWriteSet), an irrevocable body's pessimistic reads and the
// read-set upgrade all acquire through it.
func (tx *Txn) Acquire(o *objmodel.Object, w txrec.Word) bool {
	if !o.Rec.CompareAndSwap(w, txrec.MakeExclusive(tx.id)) {
		return false
	}
	tx.Owned.Put(o, txrec.Version(w))
	return true
}

// AcquireWait is the commit-time counterpart of ConflictWait, for runtimes
// that acquire their write set at commit: one conflict round on o, whose
// record could not be acquired. false means the commit must release what it
// holds and fail (cancelled, doomed, over the self-abort cap, or told to
// self-abort); o is then blamed for the abort. An irrevocable committer
// never fails: it claims and re-probes.
func (tx *Txn) AcquireWait(o *objmodel.Object, attempt int, rec txrec.Word) bool {
	tx.traceConflict(o, rec)
	if tx.Irrevocable {
		tx.irrevClaim(o, rec, attempt)
		return true
	}
	if tx.Ctx != nil && tx.Ctx.Err() != nil {
		// Cancelled mid-acquire: fail the commit; the atomic loop's entry
		// check converts the failure into ctx.Err().
		return false
	}
	if !tx.mayContend(attempt) || tx.resolve(o, conflict.TxnWrite, attempt, rec) == conflict.SelfAbort {
		tx.Blame = uint64(o.Ref())
		return false
	}
	return true
}
