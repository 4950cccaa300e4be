package txn

import (
	"context"
	"time"

	"repro/internal/conflict"
	"repro/internal/faultinject"
	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/trace"
)

// control-flow signals raised inside transaction bodies.
type signal uint8

const (
	sigRestart signal = iota + 1 // conflict or explicit restart: abort and re-execute
	sigRetry                     // user retry: abort, wait for a change, re-execute
	sigCancel                    // context cancelled: abort and return ctx.Err()
)

type txSignal struct {
	s  signal
	tx *Txn
}

// Restart aborts the transaction and re-executes it from the beginning of
// its atomic block. Exposed so tests and litmus programs can force the
// "transaction aborts for some reason" steps of the paper's Figure 3
// examples, and used internally when an access discovers the transaction is
// doomed.
func (tx *Txn) Restart() { panic(txSignal{sigRestart, tx}) }

// RestartOn is Restart with the abort attributed to the object with handle
// ref (conflict attribution in the tracer's hotspot table).
func (tx *Txn) RestartOn(ref uint64) {
	tx.Blame = ref
	tx.Restart()
}

// Retry implements the user-initiated retry operation: the transaction
// aborts and blocks until re-execution may observe something new (a read-set
// change on the validating runtimes, any commit on the multi-version one),
// then re-executes.
func (tx *Txn) Retry() {
	tx.batch.d[cUserRetries]++
	if tr := tx.Tr; tr != nil {
		tr.Record(trace.EvRetry, tx.id, 0, 0, 0)
	}
	panic(txSignal{sigRetry, tx})
}

// cancel aborts the transaction because its context is done; the atomic
// loop returns ctx.Err().
func (tx *Txn) cancel() { panic(txSignal{sigCancel, tx}) }

// Poll is the prologue of every transactional access: a doomed transaction
// restarts, and a cancelled context cancels (every access is a cancellation
// point, so a context cancelled mid-body is noticed without a conflict
// having to arise first). An irrevocable transaction does neither. Kept
// small enough to inline into the barriers; o is the accessed object, for
// attribution.
func (tx *Txn) Poll(o *objmodel.Object) {
	if (tx.Ctx != nil || tx.doomed.Load()) && !tx.Irrevocable {
		tx.pollSlow(o)
	}
}

func (tx *Txn) pollSlow(o *objmodel.Object) {
	if tx.doomed.Load() {
		tx.RestartOn(uint64(o.Ref()))
	}
	if tx.Ctx != nil && tx.Ctx.Err() != nil {
		tx.cancel()
	}
}

// Atomic executes body as a top-level transaction, re-executing it until it
// commits; a body error aborts (rolls back) and is returned. Past
// EscalateAfter consecutive aborts the next attempt runs irrevocably.
func (k *Kernel) Atomic(body func(stmapi.Txn) error) error {
	return k.AtomicCtx(nil, body)
}

// AtomicCtx is Atomic with deadline/cancellation support; see Run for where
// the context is checked and what cancellation means after the commit point.
// A nil ctx behaves exactly like Atomic, paying zero cancellation checks.
func (k *Kernel) AtomicCtx(ctx context.Context, body func(stmapi.Txn) error) error {
	return k.Run(ctx, k.escalateFrom(), func(tx *Txn) error { return body(tx.api) })
}

// AtomicIrrevocable executes body as an irrevocable transaction: it switches
// before the body's first access, so the body runs exactly once and may
// perform I/O.
func (k *Kernel) AtomicIrrevocable(body func(stmapi.Txn) error) error {
	return k.Run(nil, 0, func(tx *Txn) error { return body(tx.api) })
}

// escalateFrom converts the configured escalation threshold into Run's
// irrevFrom parameter: the attempt index from which the transaction runs
// irrevocably, or -1 for never.
func (k *Kernel) escalateFrom() int {
	if k.cfg.EscalateAfter > 0 {
		return k.cfg.EscalateAfter
	}
	return -1
}

// Run is the top-level execution loop: body is (re-)executed until it
// commits, returns an error (which aborts and is returned), or ctx (nil for
// none) is done. irrevFrom is the attempt index from which the body runs
// irrevocably: 0 from the first attempt (AtomicIrrevocable), escalateFrom()
// for graceful degradation, -1 for never. body receives the kernel
// descriptor; the entry points wrap their bodies in a closure that does not
// escape, so a steady-state top-level Atomic allocates nothing.
//
// The context is checked on entry (an already-cancelled context returns
// ctx.Err() without executing the body), before every re-execution, at
// every access, inside conflict waits, during a retry wait, and during the
// post-commit quiescence wait. Cancellation before the commit point aborts
// the attempt and returns ctx.Err(); cancellation detected during the
// quiescence wait returns ctx.Err() with the transaction's effects already
// committed — the error then only means the grace period was not awaited.
func (k *Kernel) Run(ctx context.Context, irrevFrom int, body func(*Txn) error) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	tx := k.getTxn(ctx)
	defer k.putTxn(tx)
	for attempt := 0; ; attempt++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		tx.attempt = attempt
		tx.begin()
		// From irrevFrom on, the switch happens right after begin, while the
		// read set is empty and nothing is held, so the token acquire can
		// never deadlock and the read-set upgrade is trivial.
		err, sig := tx.run(body, irrevFrom >= 0 && attempt >= irrevFrom, irrevFrom > 0)
		switch sig {
		case 0:
			if err != nil {
				tx.abort()
				return err
			}
			committed, cerr := tx.commit()
			if committed {
				return cerr
			}
			tx.abort()
		case sigRestart:
			tx.abort()
		case sigRetry:
			tx.abort()
			// The read set survives abort (begin resets it on the next
			// attempt), so the runtime waits on it in place instead of
			// copying it into a fresh snapshot on every retry. The retry
			// shows in Stats while it waits.
			tx.publishStats()
			if werr := tx.self.RetryWait(ctx); werr != nil {
				return werr
			}
		case sigCancel:
			tx.abort()
			if ctx != nil {
				return ctx.Err()
			}
			return context.Canceled // unreachable: sigCancel requires a ctx
		}
		conflict.WaitAttempt(attempt)
	}
}

// run executes the body, converting control-flow panics into signals. A
// foreign panic raised while the attempt is inconsistent (invalid read set)
// is treated as a restart — speculative execution on inconsistent data may
// fault in arbitrary ways, exactly the hazard quiescence-based systems
// worry about (Section 3.4); a managed runtime converts the fault into an
// abort. The consistency question always gets the entry-by-entry answer,
// never the clock fast path: a fault is rare enough that the O(|read set|)
// walk is the right price for certainty. (The multi-version runtime keeps no
// read set — its snapshot reads are consistent by construction — so its
// walk is over nothing and a fault there is always the body's own.)
func (tx *Txn) run(body func(*Txn) error, irrevocable, escalated bool) (err error, sig signal) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if tx.dead.Load() {
			// The goroutine died at an Orphan injection point: no cleanup may
			// run — its records stay held for the reaper, and the descriptor
			// must never be pooled (putTxn checks the same flag).
			panic(r)
		}
		if s, ok := r.(txSignal); ok && s.tx == tx {
			sig = s.s
			return
		}
		if ok, _ := tx.walkValidate(); !ok {
			sig = sigRestart
			return
		}
		// A genuine fault in a consistent transaction: abort (roll back and
		// release every owned record) before propagating, so other threads
		// are not left blocking on records owned by a dead transaction.
		tx.abort()
		panic(r)
	}()
	if irrevocable {
		tx.becomeIrrevocable(escalated)
	}
	return body(tx), 0
}

// abort rolls the attempt back and does the bookkeeping of an abort of any
// cause.
func (tx *Txn) abort() {
	tx.self.Rollback()
	// Work invested by the failed attempt converts into priority for the
	// next one (Karma-style policies): reads and writes not yet flushed
	// belong to this attempt.
	if n := tx.NReads + tx.NWrites; n > 0 {
		tx.karma.Add(n)
	}
	// Aborting while irrevocable is a contract violation (the body returned
	// an error after the switch), but the token must still be surrendered —
	// after Rollback released the records.
	tx.dropIrrevocable()
	tx.status.Store(uint32(stmapi.Aborted))
	tx.land()
	if tr := tx.Tr; tr != nil {
		tr.Record(trace.EvAbort, tx.id, tx.Blame, 0, 0)
		if tx.Blame != 0 {
			tr.Hot().BumpAbort(tx.Blame)
		}
		tx.abortAt = time.Now()
	}
	tx.Blame = 0
	tx.batch.d[cAborts]++
	tx.flushStats()
}

// Fault fires the injector at point p of the commit protocol, the one place
// an injected action meets it. true means the attempt must fail: an Abort
// fired and the transaction is not irrevocable; the caller takes its
// ordinary failure step. An Orphan dies here with no cleanup (Die), and a
// Delay has already slept. Callers guard it with FI != nil.
func (tx *Txn) Fault(p faultinject.Point) bool {
	switch tx.FI.Fire(p, tx.id) {
	case faultinject.Abort:
		return !tx.Irrevocable
	case faultinject.Orphan:
		tx.Die(p)
	}
	return false
}

// Die terminates the goroutine's transactional life with no cleanup
// (faultinject.Orphan): the orphan's records stay held until a reaper or a
// conflicting waiter steals them. The dead store is the death certificate
// gating all stealing; it must be the last thing the dying goroutine does
// to the descriptor.
func (tx *Txn) Die(p faultinject.Point) {
	tx.dead.Store(true)
	panic(faultinject.OrphanError{Point: p, Txn: tx.id})
}

// land ends the attempt in flight, if quiescence began one: nothing it did
// is left to undo, write back or release.
func (tx *Txn) land() {
	if g := tx.flight.Load(); g&1 != 0 {
		tx.flight.Store(g + 1)
	}
}

// quiesce is the Section 3.4 grace period: it returns once every attempt
// that was in flight when it scanned has ended, so no transaction still
// running (a doomed one included) can touch what the caller's commit
// privatized, and on a deferred-update runtime no commit serialized earlier
// is still writing back. The caller has landed, so it never waits for itself
// and two quiescing committers never wait for each other. Each attempt's
// begin store precedes its first access and sync/atomic is sequentially
// consistent, so an attempt that touched a record before the caller acquired
// or validated it shows odd to this scan, or has already ended. A scanned descriptor may be recycled
// mid-wait; its counter still changes, which ends the wait. A dead one is
// reaped inline (Reap ends its attempt), and a cancelled context abandons the
// wait with its error.
func (tx *Txn) quiesce() error {
	k := tx.k
	var err error
	k.reg.forEach(func(other *Txn) bool {
		g := other.flight.Load()
		for a := 0; g&1 != 0 && other.flight.Load() == g; a++ {
			if other.dead.Load() && k.Reap(other, tx.id, 0) {
				break
			}
			if tx.Ctx != nil {
				if err = tx.Ctx.Err(); err != nil {
					return false
				}
			}
			conflict.WaitAttempt(a)
		}
		return true
	})
	return err
}
