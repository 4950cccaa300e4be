package lazystm

// Contention policies under the lazy runtime: arbitration happens inside
// the commit-time acquire loop. The lazy runtime acquires records in sorted
// handle order, so it cannot deadlock on its own; these tests check the
// wiring (decisions recorded, dooms honored up to the commit point) and the
// invariants under contention per policy.

import (
	"runtime"
	"testing"

	"repro/internal/conflict"
	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/trace"
	"repro/internal/txn/txntest"
)

func TestPoliciesPreserveInvariantsUnderContention(t *testing.T) {
	txntest.PoliciesPreserveInvariants(t, "lazy")
}

// alwaysDoom is a contention policy that rules for the requester every
// time.
type alwaysDoom struct{}

func (alwaysDoom) HandleConflict(conflict.Info)            {}
func (alwaysDoom) Resolve(conflict.Info) conflict.Decision { return conflict.AbortOther }

func TestDoomAfterCommitPointIsIgnored(t *testing.T) {
	// A doom landing after the victim's commit point must not undo it: the
	// victim has won the race and simply commits (advisory dooming is
	// honored only up to validation). The victim is held inside its commit
	// window until a contender for its record has doomed it.
	var f *fixture
	var o *objmodel.Object
	var mine, victim *Txn
	contender := make(chan error, 1)
	f = newFixture(t, stmapi.CommonConfig{Handler: alwaysDoom{}})
	f.traceSink(func(ev trace.Event) {
		if ev.Kind != trace.EvCommitPoint || victim != nil {
			return // not a commit point, or the contender's own
		}
		victim = mine
		go func() {
			contender <- f.rt.Atomic(func(tx stmapi.Txn) error {
				tx.Write(o, 1, 9)
				return nil
			})
		}()
		for !victim.Doomed() {
			runtime.Gosched()
		}
	})
	o = f.heap.New(f.cls)
	if err := f.rt.Atomic(func(tx stmapi.Txn) error {
		mine = tx.(*Txn)
		tx.Write(o, 0, 7)
		return nil
	}); err != nil {
		t.Fatalf("Atomic: %v", err)
	}
	if err := <-contender; err != nil {
		t.Fatalf("contender: %v", err)
	}
	if victim == nil {
		t.Fatalf("the commit-point sink never ran")
	}
	if got := o.LoadSlot(0); got != 7 {
		t.Fatalf("slot 0 = %d, want 7 (post-commit-point doom must be ignored)", got)
	}
	if s := f.rt.Stats(); s.Commits != 2 || s.DoomsIssued != 1 {
		t.Fatalf("commits = %d, dooms = %d, want 2 and 1", s.Commits, s.DoomsIssued)
	}
}
