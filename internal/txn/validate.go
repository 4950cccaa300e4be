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
// mutation of shared state that a live snapshot may have read moves the clock
// before it is visible: a commit that changes a shared value, a reaper
// completing a committed orphan, and a non-transactional write barrier unless
// the object's version is still above the clock, which no snapshot that has
// read the object leaves it (strong.Barriers). So an unmoved clock proves
// nothing this transaction read has changed since the snapshot and the
// O(|read set|) validation walk can be skipped. Releases that bump a version
// over restored or untouched values (aborts, commits that took no write
// version) invalidate nothing: a read set that passes on the clock alone is
// still value-equivalent to a consistent snapshot. They raise the clock no
// further than the version they store (CoverBump). With ClockOn false every
// validation walks.

// OpenRead is the validating runtimes' open-for-read (Section 3.1): eager's
// Read, and lazy's past its buffer lookup. A private object is read directly
// and a record this transaction holds is read through (eager's own write, an
// irrevocable body's read lock). A record held by someone else is one
// conflict round, and the record is probed again. An irrevocable transaction
// acquires the record like a write, so its commit validation cannot fail.
// Otherwise the slot is sampled under the record seqlock: a version above
// the clock snapshot extends the snapshot and samples again under the one
// that covers it (extendSnapshot says why), and a version other than the one
// this attempt first read o at dooms the attempt. Every read is traced, a
// private one too: the soundness oracle audits elided accesses against the
// manifest, and sees them no other way.
func (tx *Txn) OpenRead(o *objmodel.Object, slot int) uint64 {
	for attempt := 0; ; attempt++ {
		w := o.Rec.Load()
		var ver uint64
		switch {
		case txrec.IsPrivate(w):
		case txrec.IsExclusive(w) && txrec.Owner(w) == tx.id:
		case !txrec.IsShared(w):
			tx.ConflictWait(o, conflict.TxnRead, attempt, w)
			continue
		case tx.Irrevocable:
			if !tx.Acquire(o, w) {
				continue
			}
			ver = txrec.Version(w)
			tx.Reads.Put(o, ver)
		default:
			v := o.LoadSlot(slot)
			if o.Rec.Load() != w {
				continue // the record changed under the sample
			}
			ver = txrec.Version(w)
			if tx.k.ClockOn && ver > tx.RV {
				tx.extendSnapshot(o, ver)
				continue
			}
			if prev, ok := tx.Reads.Get(o); !ok {
				tx.Reads.Put(o, ver)
			} else if prev != ver {
				tx.RestartOn(uint64(o.Ref()))
			}
			if tr := tx.Tr; tr != nil {
				tr.Record(trace.EvRead, tx.id, uint64(o.Ref()), slot, ver)
			}
			return v
		}
		if tr := tx.Tr; tr != nil {
			tr.Record(trace.EvRead, tx.id, uint64(o.Ref()), slot, ver)
		}
		return o.LoadSlot(slot)
	}
}

// ValidateOrRestart aborts and restarts the transaction if its read set is
// no longer consistent. The VM calls this periodically so that doomed
// transactions (which have read data speculatively written by others)
// abort promptly instead of looping or faulting.
func (tx *Txn) ValidateOrRestart() {
	if ok, bad := tx.validateRead(); !ok {
		tx.failValidation(bad)
	}
}

// validateRead is validation that takes no write version: mid-body checks
// and commits that changed no shared value. An unmoved clock is sufficient.
func (tx *Txn) validateRead() (bool, uint64) {
	if tx.k.ClockOn && tx.k.Clock.Load() == tx.RV {
		tx.batch.d[cFastpathValidations]++
		return true, 0
	}
	tx.batch.d[cFallbackWalks]++
	return tx.walkValidate()
}

// ValidateCommit validates the read set at commit, with the write set's
// records already held. false means the commit must fail: the first
// inconsistent object is blamed and the stale read reported to the tracer.
// An irrevocable transaction cannot fail (every read-set entry has been
// Exclusive(self) since the switch), so one that does panics. stamp says the
// commit changes shared values (or must be logged) and so needs a write
// version, which is left in tx.WV; otherwise WV stays 0 and the releases
// degrade to plain version bumps — releasing unchanged values (read-only
// bodies, irrevocable bodies holding only pessimistic read claims) leaves
// stale snapshots valid, so no clock step is needed.
//
// The rule for a stamped commit: its write version is always taken by one
// CAS that moves the clock from a value sampled BEFORE the validation that
// justifies the commit. From RV itself the CAS is the whole validation (the
// fast path): nobody obtained a version since the snapshot. Otherwise the
// committer samples the clock, walks the read set — which sees other
// committers' held records — and tries the CAS from the sampled value,
// again until one succeeds or a walk fails. So a failed validation never
// moves the clock, and no two committers with crossed read/write sets both
// pass: their CASes are ordered, and the later one sampled the clock after
// the earlier one's step, by which time the earlier one held its write set,
// so the later one's walk (or, on its fast path, its own snapshot's reads)
// met those records.
//
// Two shapes this replaced admitted write skew on runtimes that claim
// opacity. Comparing clock == RV and taking the version afterwards lets two
// committers both pass the compare before either steps. Walking and then
// stepping unconditionally leaves the walker's held records invisible to a
// concurrent fast-path committer for the span between its walk and its
// step: the fast path passes because the clock has not moved yet, the
// walker passed because the other had not locked yet.
func (tx *Txn) ValidateCommit(stamp bool) bool {
	k := tx.k
	switch {
	case !stamp:
		ok, bad := tx.validateRead()
		if !ok {
			return tx.failCommit(bad)
		}
		if tx.Owned.Len() > 0 {
			// Pessimistic read claims, about to be released one version up
			// with their values as they were.
			tx.Owned.Range(func(_ *objmodel.Object, sv uint64) bool {
				tx.CoverBump(sv + 1)
				return true
			})
		}
		return true
	case !k.ClockOn:
		tx.batch.d[cFallbackWalks]++
		if ok, bad := tx.walkValidate(); !ok {
			return tx.failCommit(bad)
		}
		if tx.sink != nil {
			tx.Stamp() // walk validation needs no version; the redo record needs an LSN
		}
		return true
	}
	// Sample first rather than open with a CAS from RV: under contention the
	// clock has usually moved, and a load leaves its cache line shared where
	// a failed CAS would take it exclusive for nothing.
	c := k.Clock.Load()
	for fast := c == tx.RV; ; c, fast = k.Clock.Load(), false {
		if !fast {
			tx.batch.d[cFallbackWalks]++
			if ok, bad := tx.walkValidate(); !ok {
				return tx.failCommit(bad)
			}
		}
		if k.Clock.AdvanceFrom(c) {
			if fast {
				tx.batch.d[cFastpathValidations]++
			}
			tx.batch.d[cClockAdvances]++
			tx.WV = c + 1
			return true
		}
	}
}

// failCommit is ValidateCommit's failure: the stale read of the object with
// handle bad is reported and blamed.
func (tx *Txn) failCommit(bad uint64) bool {
	tx.NotifyStale(bad)
	if tx.Irrevocable {
		panic("txn: irrevocable transaction failed validation")
	}
	tx.Blame = bad
	return false
}

// CoverBump raises the commit clock to ver, the version at which the caller is
// about to release a record whose object holds the values it held at the
// version before (an abort's restored ones, a read claim's untouched ones).
// Such a release leaves every snapshot that read the object valid, entries
// at the older version included, and so must not leave the object's version
// leading the clock: a non-transactional write barrier takes a version above
// the clock as proof that no live snapshot has read the object and skips its
// clock step (strong.Barriers). A no-op, one load, unless the object was the
// last thing the clock was stepped for or already led it.
func (tx *Txn) CoverBump(ver uint64) {
	if tx.k.ClockOn {
		tx.k.Clock.Raise(ver)
	}
}

// Stamp obtains a write version in the GV4 pass-on-failure style for a
// commit that validates nothing against the clock (the multi-version
// runtime's first-committer-wins, or a walk-validated commit that only
// needs a log sequence number), and leaves it in tx.WV.
func (tx *Txn) Stamp() {
	var advanced bool
	if tx.WV, advanced = tx.k.Clock.Advance(); advanced {
		tx.batch.d[cClockAdvances]++
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

// extendSnapshot handles a read that observed version ver of o above the
// clock snapshot: it raises the clock to cover ver (abort releases and
// anonymous releases push object versions past the clock, so waiting for a
// committer to catch the clock up could livelock), re-validates the read
// set against a fresh clock value, and on success adopts that value as the
// new snapshot. On failure the transaction restarts — it read something
// that changed since begin.
//
// The caller must re-sample o after a successful extension rather than
// record the value it sampled before: that sample is covered by neither the
// walk (o is not in the read set yet) nor the new snapshot, so a commit to o
// landing between the sample and the fresh clock value would leave a stale
// entry that every later clock-only validation accepts — the lost update
// the benchmark's shared_hot workload found on the lazy runtime.
func (tx *Txn) extendSnapshot(o *objmodel.Object, ver uint64) {
	k := tx.k
	if tr := tx.Tr; tr != nil {
		ref := uint64(o.Ref())
		tr.Record(trace.EvExtend, tx.id, ref, 0, ver)
		tr.Hot().BumpValidation(ref)
	}
	k.Clock.Raise(ver)
	newRV := k.Clock.Load()
	tx.batch.d[cFallbackWalks]++
	if ok, bad := tx.walkValidate(); !ok {
		tx.failValidation(bad)
	}
	tx.RV = newRV
}

// failValidation attributes a validation failure to the object with handle
// bad and restarts.
func (tx *Txn) failValidation(bad uint64) {
	tx.NotifyStale(bad)
	tx.RestartOn(bad)
}

// NotifyStale reports an abort caused by a stale read of the object with
// handle bad to the tracer. Unlike a conflict there is no decision to make
// — the transaction is already inconsistent — so the report is purely for
// attribution.
func (tx *Txn) NotifyStale(bad uint64) {
	if tr := tx.Tr; tr != nil {
		tr.Record(trace.EvValidation, tx.id, bad, tx.attempt, 0)
		tr.Hot().BumpValidation(bad)
	}
}

// RetryWait implements Strategy.RetryWait for the validating runtimes, and
// is promoted to them: it blocks until any object in the aborted attempt's
// read set changes version or becomes owned, or ctx (nil for none) is done.
// The read set survives abort and is reset only on the next begin, so it is
// waited on in place.
func (tx *Txn) RetryWait(ctx context.Context) error {
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
		conflict.WaitAttempt(a)
	}
}
