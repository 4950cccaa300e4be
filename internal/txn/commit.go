package txn

import (
	"time"

	"repro/internal/faultinject"
	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/trace"
)

// phase is how far an attempt's commit got. The kernel moves it at the
// protocol's step boundaries, and reclaim ends an attempt that a panic or a
// thread death cut short by it, so no runtime keeps a flag of its own.
type phase uint8

const (
	phaseBody        phase = iota // before the commit point: rolled back
	phaseCommitted                // past it: nothing installed or written back yet
	phaseInstalled                // installed: the write-back may be incomplete
	phaseWrittenBack              // written back: the redo record is owed
	phaseLogged                   // logged, or owing nothing: the release and exit may be left
)

// commit runs the commit protocol (Section 3), written once: its steps in
// order, with what the versioning does at each from the strategy (DESIGN.md
// §6 tabulates them per runtime). ok=false means the attempt must abort and
// retry (Run calls Rollback next). A non-nil error is only possible past the
// commit point, when cancellation abandoned the quiescence wait, the commit
// sink failed or is poisoned; the effects are applied and Run returns the
// error without retrying.
func (tx *Txn) commit() (ok bool, err error) {
	s := tx.self
	if s.ReadOnly() {
		tx.NReadOnly++
		tx.status.Store(uint32(stmapi.Committed))
		tx.phase = phaseLogged
		tx.committed()
		return true, nil
	}
	if tx.doomed.Load() && !tx.Irrevocable {
		return false, nil
	}
	if !s.LockWriteSet() {
		return false, nil
	}
	// An orphan here dies entering validation holding its whole write set,
	// written in place or buffered: the canonical orphan.
	if tx.FI != nil && tx.Fault(faultinject.PreValidate) {
		return false, nil
	}
	if !s.Validate() {
		return false, nil
	}

	// ----- commit point: the transaction is now serialized. -----
	tx.status.Store(uint32(stmapi.Committed))
	tx.phase = phaseCommitted
	if tr := tx.Tr; tr != nil {
		tr.Record(trace.EvCommitPoint, tx.id, 0, 0, tx.WV)
	}
	s.Install()
	tx.phase = phaseInstalled
	s.WriteBack()
	tx.phase = phaseWrittenBack
	if tx.FI != nil {
		// Logically committed, written back, records still held: an Abort
		// is ignored, and an orphan dies with no cleanup, in flight until a
		// reaper releases it at WV or a quiescing committer reaps it inline.
		tx.Fault(faultinject.PostCommitPoint)
		tx.Fault(faultinject.PreRelease)
	}
	seq, err := tx.appendRedo()
	tx.phase = phaseLogged
	tx.releaseStamped()
	tx.committed() // the token is surrendered before any wait
	s.Exit()
	return true, tx.awaitCommitted(seq, err)
}

// ReadOnly implements Strategy for the runtimes that validate: every commit
// takes the full path.
func (tx *Txn) ReadOnly() bool { return false }

// LockWriteSet implements Strategy for a runtime that writes in place: the
// body acquired every record it wrote.
func (tx *Txn) LockWriteSet() bool { return true }

// Install and WriteBack implement Strategy for a runtime that writes in
// place: it keeps no history, and a committed attempt's writes are all in
// memory already.
func (tx *Txn) Install()   {}
func (tx *Txn) WriteBack() {}

// Exit implements Strategy for a runtime that enters nothing to commit.
func (tx *Txn) Exit() {}

// appendRedo hands the commit sink, if there is one, the strategy's redo
// image while the records are still held, so the log observes commits to
// each object in release order and replay order agrees with every object's
// version order. A commit that wrote nothing appends nothing, and one
// through a poisoned sink appends nothing and fails. A commit cut short
// before this append is not durable and was never acked; reclaim poisons
// the sink for it.
func (tx *Txn) appendRedo() (seq uint64, err error) {
	b := tx.sink
	if b == nil {
		return 0, nil
	}
	if tx.redo = tx.self.Redo(tx.redo[:0]); len(tx.redo) == 0 {
		return 0, nil
	}
	if b.poisoned.Load() {
		return 0, ErrSinkPoisoned
	}
	return b.s.AppendRedo(tx.id, tx.WV, tx.redo)
}

// Durable reports whether a commit sink was installed when the transaction
// began: a commit that stores anything is then logged, and needs a write
// version as its log sequence number.
func (tx *Txn) Durable() bool { return tx.sink != nil }

// releaseStamped is every committed release, normal or completed by
// reclaim: each held record is stamped with the write version obtained
// before the commit point (WV is 0 for a commit that wrote nothing,
// degrading to the plain version bump), which publishes the new state to
// optimistic readers and to a multi-version runtime's snapshot readers as
// the version the slots now hold. The holdings are cleared, so nothing that
// runs after it (a panic's unwind through putTxn, a reaper) releases them
// again.
func (tx *Txn) releaseStamped() {
	tx.Owned.Range(func(o *objmodel.Object, sv uint64) bool {
		o.Rec.ReleaseOwnedAt(sv, tx.WV)
		return true
	})
	tx.Owned.Reset()
}

// committed is the common tail of a commit, once the records are released:
// it accounts the commit, surrenders the irrevocable token and ends the
// attempt. The commit counts from here, before the quiescence and
// durability waits: it has happened whether or not the caller stays to
// wait. It goes into the slot's statistics batch, which awaitCommitted
// publishes before either wait, so Stats().Commits shows it while the
// committer waits; without a wait it shows in Stats within statsBatch
// flushes of the slot, or once the slot is free.
func (tx *Txn) committed() {
	if tr := tx.Tr; tr != nil {
		tr.Record(trace.EvCommit, tx.id, 0, 0, 0)
		tr.ObserveCommit(time.Since(tx.beginAt))
	}
	tx.dropIrrevocable()
	tx.batch.d[cCommits]++
	tx.flushStats()
	tx.land()
}

// awaitCommitted is what a committed transaction waits for before Atomic
// returns, holding nothing and landed, so neither wait extends a lock hold
// time: under Quiescence the grace period (observed by the tracer), then the
// durability of the redo record appended as seq (appendErr is that append's
// error). Either error leaves the commit applied in memory, its durability
// unknown to the caller; the grace period's takes precedence. Before either
// wait the slot's statistics batch is published, the commit included.
func (tx *Txn) awaitCommitted(seq uint64, appendErr error) error {
	durable := appendErr == nil && seq != 0
	if tx.k.cfg.Quiescence || durable {
		tx.publishStats()
	}
	var err error
	if tx.k.cfg.Quiescence {
		start := time.Now()
		err = tx.quiesce()
		if tr := tx.Tr; tr != nil {
			tr.ObserveQuiesce(time.Since(start))
		}
	}
	if durable {
		appendErr = tx.sink.s.WaitDurable(seq)
	}
	if err != nil {
		return err
	}
	return appendErr
}

// reclaim ends an attempt that ended without its own rollback or release
// (an orphan a reaper reclaims, a panic out of the commit) by how far its
// commit got, and reports whether it had passed its commit point. Before
// it, the attempt is rolled back. Past it, the install is made if it was
// not and the write-back completed, untraced (the tracer may be what
// panicked; WriteBack stores the final values, so storing them again is
// harmless whatever the order and however far it got); a commit that owed
// the sink a record and never appended it poisons the sink; the records are
// released at WV with no clock step, as its own release would have been
// (WV came from the clock); and the runtime exits.
func (tx *Txn) reclaim() bool {
	s := tx.self
	if tx.phase == phaseBody {
		s.Rollback()
		return false
	}
	tx.Tr = nil
	if tx.phase < phaseInstalled {
		s.Install()
	}
	if tx.phase < phaseWrittenBack {
		s.WriteBack()
	}
	if tx.phase < phaseLogged && tx.sink != nil && len(s.Redo(tx.redo[:0])) > 0 {
		tx.sink.poisoned.Store(true)
	}
	tx.releaseStamped()
	s.Exit()
	return true
}
