package txn_test

// Orphan reclamation and irrevocability on every runtime: a ReapDead sweep
// or an inline steal restores or completes what an orphan held, exactly
// once, and irrevocable transactions, explicit, switched mid-body or
// escalated, commit and give the token back.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/conflict"
	"repro/internal/faultinject"
	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/txrec"
)

// gateEmpty fails the test unless an irrevocable transaction commits
// promptly. Its switch waits for the token and then, on a runtime with a
// commit gate (mvstm), until it has seen every registered descriptor
// outside the gate: a committer left counted inside it would make every
// later irrevocable switch wait forever.
func gateEmpty(t *testing.T, f fixture) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f.rt.AtomicIrrevocable(func(stmapi.Txn) error { return nil }) }()
	within(t, done, "an irrevocable switch stalled: the commit gate is not empty")
}

// TestReaperRestoresOrphanedRecord: an orphan that died at PostAcquire holds
// its record; reclaiming it restores the record to Shared with the old
// value, exactly once. Eager wrote in place and the reclaim replays its undo
// log; lazy and mvstm never wrote memory.
func TestReaperRestoresOrphanedRecord(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		o := f.cell()
		if err := f.write(o, 0, 41); err != nil {
			t.Fatal(err)
		}
		orphan(t, f, o, faultinject.PostAcquire)
		if w := o.Rec.Load(); !txrec.IsExclusive(w) {
			t.Fatalf("record not left Exclusive by the orphan: %#x", w)
		}
		inPlace := uint64(41)
		if name == "eager" {
			inPlace = 9
		}
		if v := o.LoadSlot(0); v != inPlace {
			t.Fatalf("slot = %d before the reclaim, want %d", v, inPlace)
		}
		if n := f.rt.ReapDead(); n != 1 {
			t.Fatalf("reaped %d, want 1", n)
		}
		gateEmpty(t, f)
		if w := o.Rec.Load(); !txrec.IsShared(w) {
			t.Fatalf("record not restored to Shared: %#x", w)
		}
		if v := o.LoadSlot(0); v != 41 {
			t.Fatalf("slot = %d after the reclaim, want 41", v)
		}
		if n := f.rt.Stats().ReaperSteals; n != 1 {
			t.Fatalf("ReaperSteals = %d, want 1", n)
		}
		if n := f.rt.ReapDead(); n != 0 {
			t.Fatalf("second sweep reaped %d, want 0", n)
		}
	})
}

// TestCommittedOrphanKeepsEffects: an orphan that died just past its commit
// point is committed, with its write in memory and its records still held;
// a ReapDead sweep releases them, keeps its effects, and ends its flight, so
// a quiescent commit after it does not stall.
func TestCommittedOrphanKeepsEffects(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{Quiescence: true})
		o := f.cell()
		orphan(t, f, o, faultinject.PostCommitPoint)
		if n := f.rt.ReapDead(); n != 1 {
			t.Fatalf("reaped %d, want 1", n)
		}
		gateEmpty(t, f)
		if w := o.Rec.Load(); !txrec.IsShared(w) {
			t.Fatalf("record not released: %#x", w)
		}
		if v := o.LoadSlot(0); v != 9 {
			t.Fatalf("committed effect lost: slot = %d, want 9", v)
		}
		within(t, commitAsync(f, f.cell(), 1), "a quiescent commit stalled on the reaped orphan")
	})
}

// TestWaiterStealsInlineWithoutReaper: with no sweep running, the next
// writer finds the dead owner and steals its record inline.
func TestWaiterStealsInlineWithoutReaper(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		o := f.cell()
		orphan(t, f, o, faultinject.PreValidate)
		within(t, commitAsync(f, o, 5), "writer blocked on the orphaned record: inline steal did not happen")
		if v := o.LoadSlot(0); v != 5 {
			t.Fatalf("slot = %d, want 5", v)
		}
	})
}

// TestReaperVsInlineStealRace races the two reclamation paths on one
// orphan: ReapDead sweeping flat out while a conflicting writer steals
// inline the moment it finds the dead owner. Reclaim is idempotent per
// victim, so exactly one of them wins: one steal, the record Shared, and
// the writer's value in place. Run under -race in CI; the iterations give
// the schedules room to interleave both orders.
func TestReaperVsInlineStealRace(t *testing.T) {
	iters := 25
	if testing.Short() {
		iters = 5
	}
	forEachRuntime(t, func(t *testing.T, name string) {
		for i := 0; i < iters; i++ {
			f := newFixture(t, name, stmapi.CommonConfig{})
			o := f.cell()
			if err := f.write(o, 0, 41); err != nil {
				t.Fatal(err)
			}
			orphan(t, f, o, faultinject.PostAcquire)
			start := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for j := 0; j < 4; j++ {
					f.rt.ReapDead()
				}
			}()
			wrote := make(chan error, 1)
			go func() {
				<-start
				wrote <- f.write(o, 0, 5)
			}()
			close(start)
			wg.Wait()
			within(t, wrote, "writer blocked on the orphaned record")
			if n := f.rt.Stats().ReaperSteals; n != 1 {
				t.Fatalf("iteration %d: %d steals recorded, want exactly 1 (double reclaim?)", i, n)
			}
			if w := o.Rec.Load(); !txrec.IsShared(w) {
				t.Fatalf("iteration %d: record not Shared after the race: %#x", i, w)
			}
			if v := o.LoadSlot(0); v != 5 {
				t.Fatalf("iteration %d: slot = %d, want the writer's 5", i, v)
			}
		}
	})
}

// TestAtomicIrrevocableCommitsAndReleasesToken: an AtomicIrrevocable body
// runs irrevocably, commits, gives the token back and is accounted.
func TestAtomicIrrevocableCommitsAndReleasesToken(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		o := f.cell()
		if err := f.write(o, 0, 1); err != nil {
			t.Fatal(err)
		}
		if err := f.rt.AtomicIrrevocable(func(tx stmapi.Txn) error {
			if !tx.IsIrrevocable() {
				t.Error("body not irrevocable inside AtomicIrrevocable")
			}
			tx.Write(o, 0, tx.Read(o, 0)+1)
			return nil
		}); err != nil {
			t.Fatalf("AtomicIrrevocable: %v", err)
		}
		if v := o.LoadSlot(0); v != 2 {
			t.Fatalf("slot = %d, want 2", v)
		}
		if tok := kernelOf(f.rt).IrrevocableHolder(); tok != 0 {
			t.Fatalf("token not released: %d", tok)
		}
		if s := f.rt.Stats(); s.IrrevocableTxns != 1 || s.IrrevocableNs <= 0 {
			t.Fatalf("IrrevocableTxns = %d, IrrevocableNs = %d; want 1 and > 0", s.IrrevocableTxns, s.IrrevocableNs)
		}
	})
}

// TestBecomeIrrevocableMidBodySurvivesDoom: past the switch nothing may
// abort the transaction: its read of an object writers hammer succeeds and
// it commits, giving the token back.
func TestBecomeIrrevocableMidBodySurvivesDoom(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		o := f.cell()
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := f.rt.Atomic(func(tx stmapi.Txn) error {
						tx.Write(o, 1, tx.Read(o, 1)+1)
						return nil
					}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		err := f.rt.Atomic(func(tx stmapi.Txn) error {
			tx.BecomeIrrevocable()
			v := tx.Read(o, 1)
			time.Sleep(time.Millisecond)
			tx.Write(o, 0, v)
			return nil
		})
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatalf("irrevocable transaction returned %v", err)
		}
		if tok := kernelOf(f.rt).IrrevocableHolder(); tok != 0 {
			t.Fatalf("token not released: %d", tok)
		}
	})
}

// TestEscalateAfterConsecutiveAborts: with every attempt aborted at
// validation, the attempt after EscalateAfter consecutive aborts runs
// irrevocably, which the injected abort cannot touch, and commits.
func TestEscalateAfterConsecutiveAborts(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{EscalateAfter: 3})
		o := f.cell()
		f.rt.SetInjector(faultinject.New(1, faultinject.Rule{Point: faultinject.PreValidate, Action: faultinject.Abort, Every: 1}))
		sawIrrevocable := false
		err := f.rt.Atomic(func(tx stmapi.Txn) error {
			if tx.Attempt() > 6 {
				return errors.New("still revocable after 6 aborts")
			}
			sawIrrevocable = tx.IsIrrevocable()
			tx.Write(o, 0, uint64(tx.Attempt()))
			return nil
		})
		f.rt.SetInjector(nil)
		if err != nil {
			t.Fatalf("Atomic: %v", err)
		}
		if !sawIrrevocable {
			t.Fatal("final attempt did not run irrevocably")
		}
		if n := f.rt.Stats().Escalations; n != 1 {
			t.Fatalf("Escalations = %d, want 1", n)
		}
		if v := o.LoadSlot(0); v != 3 {
			t.Fatalf("slot = %d, want 3 (attempt index at escalation)", v)
		}
	})
}

// TestPanicInCommitWindow: a panic raised inside a commit, by the commit
// sink, by a synchronous trace sink at an event the kernel's commit records,
// or by the contention policy the commit consults, reaches the caller
// unchanged and leaves nothing held, on a plain and on an irrevocable
// commit. Afterwards the irrevocable token is free, a fresh goroutine's
// write to the object commits within the bound, and the two objects the
// commit wrote hold what it left: before the commit point their old values
// and original record words; past it Shared records whose version is not
// below the commit's stamp, over the committed values, even where the panic
// came before the write-back stored them (at the commit point, or at the
// first of the two write-backs), and on mvstm over a chain whose head is
// the pre-image. At the commit event the records are already released, and
// the plain run commits a second write to the first object from another
// goroutine there: the unwind must leave that commit's record word and
// value alone.
//
// Every commit runs with a commit sink installed. One that the panic ended
// past its commit point and before its redo append (the sink, commit-point
// and write-back sites) poisons that sink: the next commit through it fails
// with txn.ErrSinkPoisoned and appends nothing, until the sink is installed
// again. Before the commit point, or once appended, the next commit is
// logged as usual.
//
// Some sites cannot exist on some runtimes, by construction: eager takes
// its records at the write, in the body, so it records no lock-acquire and
// consults no policy inside its commit, and it writes in place, so it has
// no write-back; an irrevocable commit claims a held record and consults no
// policy (irrevClaim).
func TestPanicInCommitWindow(t *testing.T) {
	sites := []struct {
		name      string
		kind      trace.Kind // 0: the commit sink, or the policy, panics
		committed bool       // the panic is past the commit point
		poisons   bool       // ... and before the redo append
	}{
		{"sink", 0, true, true},
		{"lock-acquire", trace.EvLockAcquire, false, false},
		{"commit-point", trace.EvCommitPoint, true, true},
		{"write-back", trace.EvWriteBack, true, true},
		{"commit", trace.EvCommit, true, false},
		{"handler", 0, false, false},
	}
	forEachRuntime(t, func(t *testing.T, name string) {
		for _, s := range sites {
			t.Run(s.name, func(t *testing.T) {
				switch {
				case name == "eager" && (s.kind == trace.EvLockAcquire || s.name == "handler"):
					t.Skip("eager takes its records at the write, in the body: its commit records no lock-acquire and consults no policy")
				case name == "eager" && s.kind == trace.EvWriteBack:
					t.Skip("eager writes in place: its commit has no write-back")
				}
				for _, irrevocable := range []bool{false, true} {
					if irrevocable && s.name == "handler" {
						continue // an irrevocable commit claims a held record and consults no policy
					}
					var armed, fired atomic.Bool
					pol := &panicPolicy{armed: &armed, fired: &fired}
					f := newFixture(t, name, stmapi.CommonConfig{Handler: pol})
					rt := f.rt.(stmapi.DurableRuntime)
					k := kernelOf(f.rt)
					scratch, o, p := f.cell(), f.cell(), f.cell()
					for i := 0; i < 4; i++ { // the clock well above o's and p's versions
						if err := f.write(scratch, 0, uint64(i)); err != nil {
							t.Fatal(err)
						}
					}
					before, beforeP, clock := o.Rec.Load(), p.Rec.Load(), k.Clock.Load()
					sink := &windowSink{}
					sink.panics.Store(s.name == "sink")
					rt.SetCommitSink(sink)
					var want any = "sink failure"
					var after txrec.Word // the record word the second commit left, if any
					switch {
					case s.name == "handler":
						want = "policy failure"
						p.Rec.Store(txrec.MakeExclusive(1 << 40)) // held by an owner no registry knows
					case s.kind != 0:
						want = "trace sink failure at " + s.name
						tr := trace.New(trace.Config{Shards: 1, ShardCapacity: 64})
						tr.SetSink(trace.SinkFunc(func(ev trace.Event) {
							if ev.Kind != s.kind || !armed.Load() || !fired.CompareAndSwap(false, true) {
								return
							}
							if s.kind == trace.EvCommit && !irrevocable {
								if err := <-commitAsync(f, o, 8); err != nil {
									t.Error(err)
								}
								after = o.Rec.Load()
							}
							panic(want)
						}))
						f.rt.SetTracer(tr)
					}
					run := f.rt.Atomic
					if irrevocable {
						run = f.rt.AtomicIrrevocable
					}
					got := func() (r any) {
						defer func() { r = recover() }()
						_ = run(func(tx stmapi.Txn) error {
							tx.Write(o, 0, 7)
							tx.Write(p, 0, 7)
							armed.Store(true) // what follows the body is the commit
							return nil
						})
						return nil
					}()
					armed.Store(false)
					f.rt.SetTracer(nil)
					if s.name == "handler" {
						p.Rec.Store(beforeP)
					}
					if s.kind != 0 && !fired.Load() {
						t.Fatalf("irrevocable=%v: %s recorded no %s inside its commit", irrevocable, name, s.name)
					}
					if got != want {
						t.Fatalf("irrevocable=%v: recovered %v, want the panic %q", irrevocable, got, want)
					}
					if h := k.IrrevocableHolder(); h != 0 {
						t.Errorf("irrevocable=%v: transaction %d still holds the irrevocable token", irrevocable, h)
					}
					type obj struct {
						o      *objmodel.Object
						before txrec.Word
					}
					objs := []obj{{o, before}, {p, beforeP}}
					if after != 0 {
						if w, v := o.Rec.Load(), o.LoadSlot(0); w != after || v != 8 {
							t.Errorf("record %#x slot %d, want the second commit's %#x and 8", w, v, after)
						}
						objs = objs[1:] // o is the second commit's
					}
					for _, c := range objs {
						w, v := c.o.Rec.Load(), c.o.LoadSlot(0)
						switch {
						case !s.committed && (w != c.before || v != 0):
							t.Errorf("irrevocable=%v: record %#x slot %d, want the original %#x and 0", irrevocable, w, v, c.before)
						case !s.committed:
						case !txrec.IsShared(w) || txrec.Version(w) <= clock:
							t.Errorf("irrevocable=%v: record %#x, want Shared at the commit's stamp, above %d", irrevocable, w, clock)
						case v != 7:
							t.Errorf("irrevocable=%v: slot %d, want the committed 7", irrevocable, v)
						case name == "mvstm":
							if h := c.o.MVHead.Load(); h == nil || h.TS.Load() != txrec.Version(c.before) || h.Vals[0].Load() != 0 {
								t.Errorf("irrevocable=%v: chain head is not the pre-image at version %d", irrevocable, txrec.Version(c.before))
							}
						}
					}
					// The next commit through the same sink, then through the
					// sink installed again.
					sink.panics.Store(false)
					logged := int64(1)
					if s.poisons {
						logged = 0
					}
					appended := sink.appends.Load()
					if err := f.write(scratch, 0, 10); s.poisons && !errors.Is(err, txn.ErrSinkPoisoned) {
						t.Errorf("irrevocable=%v: the next commit returned %v, want txn.ErrSinkPoisoned", irrevocable, err)
					} else if !s.poisons && err != nil {
						t.Errorf("irrevocable=%v: the next commit returned %v, want it logged", irrevocable, err)
					}
					if n := sink.appends.Load() - appended; n != logged {
						t.Errorf("irrevocable=%v: the next commit appended %d records, want %d", irrevocable, n, logged)
					}
					rt.SetCommitSink(sink)
					if err := f.write(scratch, 0, 11); err != nil || sink.appends.Load()-appended != logged+1 {
						t.Errorf("irrevocable=%v: a commit through the sink installed again returned %v and appended %d, want nil and %d", irrevocable, err, sink.appends.Load()-appended, logged+1)
					}
					rt.SetCommitSink(nil)
					within(t, commitAsync(f, o, 9), "a write to the object stalled behind the panicked commit")
					if v := o.LoadSlot(0); v != 9 {
						t.Errorf("irrevocable=%v: slot %d after the rewrite, want 9", irrevocable, v)
					}
					gateEmpty(t, f)
				}
			})
		}
	})
}

// windowSink is the commit sink of TestPanicInCommitWindow: it counts the
// records appended to it, and panics in every append while panics is set.
type windowSink struct {
	panics  atomic.Bool
	appends atomic.Int64
}

func (s *windowSink) AppendRedo(uint64, uint64, []stmapi.RedoWrite) (uint64, error) {
	if s.panics.Load() {
		panic("sink failure")
	}
	return uint64(s.appends.Add(1)), nil
}

func (*windowSink) WaitDurable(uint64) error { return nil }

// panicPolicy is a contention policy that panics at the first conflict it
// is asked to resolve while armed, and backs off otherwise.
type panicPolicy struct {
	conflict.Backoff
	armed, fired *atomic.Bool
}

func (p *panicPolicy) Resolve(info conflict.Info) conflict.Decision {
	if p.armed.Load() && p.fired.CompareAndSwap(false, true) {
		panic("policy failure")
	}
	return p.Backoff.Resolve(info)
}
