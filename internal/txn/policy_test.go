package txn_test

// Contention policies on every runtime: a policy is handed what the kernel
// knows of both parties, whatever a policy decides the invariants hold, and
// a doom that arrives past the victim's commit point is ignored. Eager's encounter-time deadlock, which only arbitration breaks,
// and its in-body doom are internal/stm's.

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/conflict"
	"repro/internal/stmapi"
	"repro/internal/txn"
	"repro/internal/txrec"
)

// recordingPolicy hands the first Info it is given to seen and backs off on
// every conflict.
type recordingPolicy struct {
	conflict.Backoff
	seen chan conflict.Info
}

func (p *recordingPolicy) Resolve(info conflict.Info) conflict.Decision {
	select {
	case p.seen <- info:
	default:
	}
	return p.Backoff.Resolve(info)
}

// TestPolicySeesConflict: a transaction that meets a record another
// transaction holds hands its policy both parties: its own ID, the holder's,
// that the holder is live, and whether it holds the irrevocable token. The
// holder is kept in its commit window, records held, until the policy has
// seen the contender's first write conflict, on the holder's record word. A runtime with a commit gate (mvstm)
// admits no committer while the irrevocable token is held, so no writer
// meets an irrevocable owner there. With no Handler configured, the runtime
// reports the conflict.Backoff it resolves with.
func TestPolicySeesConflict(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		if h := kernelOf(newFixture(t, name, stmapi.CommonConfig{}).rt).Config().Handler; h == nil {
			t.Fatal("Config().Handler = nil, want the default *conflict.Backoff")
		} else if _, ok := h.(*conflict.Backoff); !ok {
			t.Fatalf("Config().Handler = %T, want *conflict.Backoff", h)
		}
		for _, irrevocable := range []bool{false, true} {
			pol := &recordingPolicy{seen: make(chan conflict.Info, 1)}
			f := newFixture(t, name, stmapi.CommonConfig{Handler: pol})
			if name == "mvstm" && irrevocable {
				continue
			}
			o := f.cell()
			var holder, contender uint64
			contended := make(chan error, 1)
			var info conflict.Info
			inCommitWindow(f, func() {
				go func() {
					contended <- f.rt.Atomic(func(tx stmapi.Txn) error {
						contender = tx.ID()
						tx.Write(o, 0, 9)
						return nil
					})
				}()
				select {
				case info = <-pol.seen:
				case <-time.After(5 * time.Second):
					t.Error("the contender's conflict never reached the policy")
				}
			})
			run := f.rt.Atomic
			if irrevocable {
				run = f.rt.AtomicIrrevocable
			}
			if err := run(func(tx stmapi.Txn) error {
				holder = tx.ID()
				tx.Write(o, 0, 7)
				return nil
			}); err != nil {
				t.Fatalf("holder: %v", err)
			}
			within(t, contended, "the contender did not commit")
			want := conflict.Info{
				Kind: conflict.TxnWrite, Record: uint64(txrec.MakeExclusive(holder)),
				Self: contender, SelfPrio: info.SelfPrio,
				Owner: holder, OwnerPrio: info.OwnerPrio, OwnerActive: true,
				OwnerIrrevocable: irrevocable,
			}
			if info != want {
				t.Errorf("irrevocable holder %v: policy saw %+v, want %+v", irrevocable, info, want)
			}
		}
	})
}

// TestPoliciesPreserveInvariantsUnderContention runs a heavily contended
// transfer workload under every registered contention policy: whatever the
// policy decides (wait, self-abort, doom), total balance is conserved and
// work commits.
func TestPoliciesPreserveInvariantsUnderContention(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		for _, policy := range conflict.PolicyNames {
			t.Run(policy, func(t *testing.T) {
				pol, err := conflict.ByName(policy)
				if err != nil {
					t.Fatal(err)
				}
				f := newFixture(t, name, stmapi.CommonConfig{Handler: pol})
				objs := accounts(f, 4, 1000) // few accounts: heavy contention
				runTransfers(t, f, objs, 4, 400)
				conserved(t, f, objs, 1000)
				s := f.rt.Stats()
				if s.Commits == 0 {
					t.Fatalf("no commits recorded")
				}
				t.Logf("starts=%d commits=%d aborts=%d self-aborts=%d dooms=%d",
					s.Starts, s.Commits, s.Aborts, s.SelfAborts, s.DoomsIssued)
			})
		}
	})
}

// alwaysDoom is a contention policy that rules for the requester every
// time.
type alwaysDoom struct{}

func (alwaysDoom) HandleConflict(conflict.Info)            {}
func (alwaysDoom) Resolve(conflict.Info) conflict.Decision { return conflict.AbortOther }

// inCommitWindow runs fn once, on the committing goroutine, inside the first
// commit window to open on f's runtime, with the committer's records held:
// at its commit point (trace.EvCommitPoint).
func inCommitWindow(f fixture, fn func()) {
	var once atomic.Bool
	atCommitPoint(f, func() {
		if once.CompareAndSwap(false, true) {
			fn()
		}
	})
}

// TestDoomAfterCommitPointIsIgnored: a doom landing after the victim's
// commit point must not undo it: the victim has won the race and simply
// commits (a doom is honoured only up to validation). The victim is held
// in its commit window until a contender for its record has doomed it.
func TestDoomAfterCommitPointIsIgnored(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{Handler: alwaysDoom{}})
		o := f.cell()
		var victim *txn.Txn
		held := false
		contender := make(chan error, 1)
		inCommitWindow(f, func() {
			held = true
			go func() { contender <- f.write(o, 1, 9) }()
			for !victim.Doomed() {
				runtime.Gosched()
			}
		})
		if err := f.rt.Atomic(func(tx stmapi.Txn) error {
			victim = base(tx)
			tx.Write(o, 0, 7)
			return nil
		}); err != nil {
			t.Fatalf("Atomic: %v", err)
		}
		if !held {
			t.Fatal("the victim's commit window never opened")
		}
		within(t, contender, "the contender did not commit")
		if got := o.LoadSlot(0); got != 7 {
			t.Fatalf("slot 0 = %d, want 7 (post-commit-point doom must be ignored)", got)
		}
		if s := f.rt.Stats(); s.Commits != 2 || s.DoomsIssued != 1 {
			t.Fatalf("commits = %d, dooms = %d, want 2 and 1", s.Commits, s.DoomsIssued)
		}
	})
}
