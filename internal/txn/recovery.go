package txn

import (
	"time"

	"repro/internal/conflict"
	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/trace"
	"repro/internal/txrec"
)

// Orphaned-transaction recovery and irrevocable mode.
//
// Recovery: a goroutine that dies mid-protocol (simulated by the faultinject
// Orphan action) leaves its records Exclusive with nobody to release them.
// The dying path (Die) marks the descriptor dead — a release-store, so
// everything the goroutine wrote beforehand (its write set in whatever form
// the runtime keeps it) happens-before any thread that observes the flag —
// and then unwinds without cleanup. Reclaim is Reap: a CAS on the reaping
// flag elects a single reclaimer, which has the runtime release the
// orphan's records exactly as the orphan's own abort would have (or, past
// the commit point, finish the release without rollback). Reclaimers are a
// conflicting waiter that finds its owner dead, a quiescing committer, and a
// ReapDead sweep — run by a waiter on the irrevocable token or a commit gate,
// or by a driver through stmapi.Runtime — so orphans are recovered within a
// bounded wait with no background goroutine.
//
// Irrevocability: a transaction holding the runtime's singular token can
// never abort. The switch acquires the token, then has the runtime make the
// attempt's reads impossible to invalidate (Strategy.LockReadSet: the
// validating runtimes share Txn.LockReadSet, which upgrades every read-set
// entry to Exclusive, and read pessimistically from then on; the
// multi-version runtime drains its commit gate and runs alone). Dooms are
// refused, conflict arbitration always rules for the token holder, and
// waiters on its records either restart via their self-abort cap or are
// doomed by the irrevocable transaction itself, so it always makes progress.

// Reap steals a dead transaction's records on behalf of reclaimer by, which
// was waiting on object obj (0 for either when a sweep reclaims). Safe by two
// gates: the dead flag (only a goroutine that will never run again sets it,
// and its release-store publishes the descriptor's final state) and the
// reaping CAS (exactly one reclaimer touches the descriptor). An orphan that
// died before its commit point is rolled back and counted as an abort; one
// that died past it has its release completed, effects intact, and counts as
// a commit. Either way every record returns to Shared and all waiters
// unblock. Returns false if tx is not confirmed dead or another reclaimer won
// the race.
func (k *Kernel) Reap(tx *Txn, by, obj uint64) bool {
	if !tx.dead.Load() || !tx.reaping.CompareAndSwap(false, true) {
		return false
	}
	id := tx.id
	if tx.reclaim() {
		tx.batch.d[cCommits]++
	} else {
		tx.status.Store(uint32(stmapi.Aborted))
		tx.batch.d[cAborts]++
	}
	tx.land() // quiescing committers stop waiting on the orphan
	if tx.irrevStamp.Load() {
		// The orphan held the irrevocable token; free it for the next taker.
		k.irrevToken.CompareAndSwap(id, 0)
	}
	// Winning the reaping CAS made the orphan's descriptor, and the registry
	// slot it still holds, the reclaimer's: the counts go into that slot's
	// batch like any flush.
	tx.batch.d[cReaperSteals]++
	tx.flushStats()
	if tr := k.tracer.Load(); tr != nil {
		tr.Record(trace.EvSteal, by, obj, 0, id)
	}
	k.reg.remove(tx)
	return true
}

// ReapDead sweeps the registry for confirmed-dead descriptors, reclaims them
// inline and returns how many it reclaimed. Wait paths with no record to
// find the owner through (the irrevocable token, a commit gate) call it so a
// dead holder cannot stall them; a driver that wants orphans reclaimed
// without waiting on them calls it through stmapi.Runtime.
func (k *Kernel) ReapDead() int {
	n := 0
	k.reg.forEach(func(tx *Txn) bool {
		if tx.dead.Load() && k.Reap(tx, 0, 0) {
			n++
		}
		return true
	})
	return n
}

// IrrevocableHolder returns the ID of the transaction holding the
// irrevocable token, 0 when it is free.
func (k *Kernel) IrrevocableHolder() uint64 { return k.irrevToken.Load() }

// IsIrrevocable reports whether the transaction has switched to irrevocable
// mode.
func (tx *Txn) IsIrrevocable() bool { return tx.Irrevocable }

// BecomeIrrevocable switches the transaction to irrevocable mode: acquire
// the runtime's singular token (waiting while another holder exists; still
// abortable while waiting), then lock the read set. If any read is already
// stale the transaction restarts — aborting is still legal up to the instant
// the switch completes. After a successful switch the transaction can no
// longer abort, restart, or be doomed, making it safe to perform I/O in the
// remainder of the body. The body must not return an error or call Retry
// after the switch.
func (tx *Txn) BecomeIrrevocable() { tx.becomeIrrevocable(false) }

func (tx *Txn) becomeIrrevocable(escalated bool) {
	if tx.Irrevocable {
		return
	}
	k := tx.k
	for a := 0; !k.irrevToken.CompareAndSwap(0, tx.id); a++ {
		// Pre-switch we are still an ordinary transaction: honor dooms and
		// cancellation so token waiters cannot deadlock with the holder. A
		// dead holder is reaped inline (Reap surrenders its token).
		if tx.doomed.Load() {
			tx.Restart()
		}
		if tx.Ctx != nil && tx.Ctx.Err() != nil {
			tx.cancel()
		}
		k.ReapDead()
		conflict.WaitAttempt(a)
	}
	if !tx.self.LockReadSet() {
		// A read went stale before the switch: surrender the token and
		// restart while aborting is still legal.
		k.irrevToken.Store(0)
		tx.Restart()
	}
	if escalated {
		tx.batch.d[cEscalations]++
		if tr := tx.Tr; tr != nil {
			tr.Record(trace.EvEscalate, tx.id, 0, tx.attempt, 0)
		}
	}
	tx.irrevAt = time.Now()
	tx.Irrevocable = true
	tx.irrevStamp.Store(true)
	if tr := tx.Tr; tr != nil {
		tr.Record(trace.EvIrrevocable, tx.id, 0, tx.attempt, 0)
	}
}

// LockReadSet implements Strategy for the two validating runtimes: it
// upgrades every read-set entry to Exclusive at its recorded version. With
// the whole read set owned, no other transaction can invalidate it, so
// commit validation trivially passes — the mechanism behind the no-abort
// guarantee — and from then on reads acquire their records pessimistically.
// Acquired records join Owned, so the failure path (ordinary restart)
// releases them through Rollback. false means an entry is stale or cannot be
// acquired at the recorded version.
func (tx *Txn) LockReadSet() bool {
	ok := true
	tx.Reads.Range(func(o *objmodel.Object, ver uint64) bool {
		w := o.Rec.Load()
		switch {
		case txrec.IsPrivate(w):
			// Only this thread ever saw it; nothing to lock.
		case txrec.IsExclusive(w) && txrec.Owner(w) == tx.id:
			// Already ours (eager read after write): valid iff acquired at
			// the version we read.
			ov, _ := tx.Owned.Get(o)
			ok = ov == ver
		case txrec.IsShared(w) && txrec.Version(w) == ver:
			// Losing the CAS race fails fast: a retry loop here could wait
			// forever on a foreign owner, and release always bumps the
			// version, so the entry can only come back stale.
			ok = tx.Acquire(o, w)
		default:
			// Foreign-owned or version moved: the snapshot is already stale.
			ok = false
		}
		return ok
	})
	return ok
}

// dropIrrevocable surrenders the irrevocable token after the transaction's
// records have been released, and accounts the hold time. No-op for ordinary
// transactions.
func (tx *Txn) dropIrrevocable() {
	if !tx.Irrevocable {
		return
	}
	hold := time.Since(tx.irrevAt)
	tx.Irrevocable = false
	tx.irrevStamp.Store(false)
	tx.k.irrevToken.Store(0)
	tx.batch.d[cIrrevocableTxns]++
	tx.batch.d[cIrrevocableNs] += hold.Nanoseconds()
	if tr := tx.Tr; tr != nil {
		tr.ObserveIrrevocableHold(hold)
	}
}
