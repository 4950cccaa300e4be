package txn

import (
	"context"

	"repro/internal/conflict"
	"repro/internal/objmodel"
	"repro/internal/trace"
	"repro/internal/txrec"
)

// Commit-clock validation for the two validating runtimes (eager, lazy).
//
// A transaction snapshots the heap's commit clock at begin (RV). Every
// commit that changes a shared value, every non-transactional write barrier
// and every reaper completing a committed orphan moves the clock, so an
// unmoved clock proves no object version changed since the snapshot and the
// O(|read set|) validation walk can be skipped. Abort-path releases bump
// versions without moving the clock, but they restore the values first, so
// a read set that passes on the clock alone is still value-equivalent to a
// consistent snapshot. With ClockOn false every validation walks.

// ValidateOrRestart aborts and restarts the transaction if its read set is
// no longer consistent. The VM calls this periodically so that doomed
// transactions (which have read data speculatively written by others)
// abort promptly instead of looping or faulting.
func (tx *Txn) ValidateOrRestart() {
	if ok, bad := tx.validateRead(); !ok {
		tx.failValidation(bad)
	}
}

// validateRead re-checks the read set: an unmoved clock proves it unchanged,
// otherwise it is walked.
func (tx *Txn) validateRead() (bool, uint64) {
	if tx.k.ClockOn && tx.k.Clock.Load() == tx.RV {
		tx.nFastpath++
		return true, 0
	}
	tx.nWalks++
	return tx.walkValidate()
}

// ValidateCommit validates the read set at commit, with the write set's
// records already held. On failure it reports the first inconsistent
// object's handle and has notified the contention handler. stamp says the
// commit changes shared values (or must be logged) and so needs a write
// version, which is obtained after validation (one clock tick, GV4
// pass-on-failure) and left in tx.WV; otherwise WV stays 0 and the releases
// degrade to plain version bumps — releasing unchanged values (read-only
// bodies, irrevocable bodies holding only pessimistic read claims) leaves
// stale snapshots valid, so no clock step is needed.
func (tx *Txn) ValidateCommit(stamp bool) (bool, uint64) {
	ok, bad := tx.validateRead()
	if !ok {
		tx.NotifyStale(bad)
		return false, bad
	}
	if stamp && (tx.k.ClockOn || tx.Sink != nil) {
		tx.Stamp()
	}
	return true, 0
}

// Stamp obtains a write version in the GV4 pass-on-failure style and leaves
// it in tx.WV.
func (tx *Txn) Stamp() {
	var advanced bool
	if tx.WV, advanced = tx.k.Clock.Advance(); advanced {
		tx.nClockAdv++
	}
}

// walkValidate is the O(|read set|) validation walk: every entry must still
// be Shared at the version read, or held by this transaction having been
// acquired at that version. On failure it also reports the handle of the
// first inconsistent object, for conflict attribution.
func (tx *Txn) walkValidate() (bool, uint64) {
	ok := true
	var bad uint64
	tx.Reads.Range(func(o *objmodel.Object, ver uint64) bool {
		w := o.Rec.Load()
		switch {
		case txrec.IsPrivate(w):
			// Only this thread could ever have seen it; trivially valid.
		case txrec.IsShared(w):
			ok = txrec.Version(w) == ver
		case txrec.IsExclusive(w) && txrec.Owner(w) == tx.id:
			ov, held := tx.Owned.Get(o)
			ok = held && ov == ver
		default:
			ok = false
		}
		if !ok {
			bad = uint64(o.Ref())
		}
		return ok
	})
	return ok, bad
}

// ExtendSnapshot handles a read that observed version ver of o above the
// clock snapshot: it raises the clock to cover ver (abort releases and
// anonymous releases push object versions past the clock, so waiting for a
// committer to catch the clock up could livelock), re-validates the read
// set against a fresh clock value, and on success adopts that value as the
// new snapshot. On failure the transaction restarts — it read something
// that changed since begin.
func (tx *Txn) ExtendSnapshot(o *objmodel.Object, ver uint64) {
	k := tx.k
	if tr := tx.Tr; tr != nil {
		ref := uint64(o.Ref())
		tr.Record(trace.EvExtend, tx.id, ref, 0, ver)
		tr.Hot().BumpValidation(ref)
	}
	k.Clock.Raise(ver)
	newRV := k.Clock.Load()
	tx.nWalks++
	if ok, bad := tx.walkValidate(); !ok {
		tx.failValidation(bad)
	}
	tx.RV = newRV
}

// failValidation attributes a validation failure to the object with handle
// bad and restarts, first notifying the contention handler.
func (tx *Txn) failValidation(bad uint64) {
	tx.NotifyStale(bad)
	tx.RestartOn(bad)
}

// NotifyStale reports an abort caused by a stale read of the object with
// handle bad to the tracer and, if it observes stale aborts
// (conflict.StaleObserver), the contention handler. Unlike a conflict there
// is no decision to make — the transaction is already inconsistent — so
// the notification is purely for attribution and priority accounting.
func (tx *Txn) NotifyStale(bad uint64) {
	if tr := tx.Tr; tr != nil {
		tr.Record(trace.EvValidation, tx.id, bad, tx.attempt, 0)
		tr.Hot().BumpValidation(bad)
	}
	if obs := tx.k.staleObs; obs != nil {
		obs.ObserveValidationAbort(conflict.Info{
			Kind:     conflict.TxnValidation,
			Attempt:  tx.attempt,
			Obj:      bad,
			Self:     tx.id,
			SelfPrio: tx.karma.Load(),
		})
	}
}

// WaitForReadSetChange blocks until any object in the aborted attempt's read
// set changes version or becomes owned, implementing the retry operation
// for the validating runtimes. The read set survives abort and is reset
// only on the next begin, so it is waited on in place.
func (tx *Txn) WaitForReadSetChange(ctx context.Context) error {
	if tx.Reads.Len() == 0 {
		return nil // retrying with an empty read set would block forever
	}
	for a := 0; ; a++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		changed := false
		tx.Reads.Range(func(o *objmodel.Object, ver uint64) bool {
			w := o.Rec.Load()
			changed = !txrec.IsPrivate(w) && (!txrec.IsShared(w) || txrec.Version(w) != ver)
			return !changed
		})
		if changed {
			return nil
		}
		conflict.WaitAttempt(a, 0)
	}
}
