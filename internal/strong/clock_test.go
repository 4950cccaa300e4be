package strong

// What an anonymous release owes the commit clock (releaseAnon), one
// deterministic interleaving at a time; internal/txn's
// TestStaleReadAcrossNTRelease is the concurrent probe. Run under -race in CI.

import (
	"errors"
	"testing"

	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/trace"
	"repro/internal/txrec"

	_ "repro/internal/lazystm"
	_ "repro/internal/stm"
)

// validating lists the runtimes that validate a read set against the clock.
var validating = []string{"eager", "lazy"}

func clockSetup(t *testing.T, name string) (stmapi.Runtime, *objmodel.Class, *Barriers) {
	t.Helper()
	h, cls, b := setup(t, false)
	rt, err := stmapi.New(name, h, stmapi.CommonConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return rt, cls, b
}

func version(o *objmodel.Object) uint64 { return txrec.Version(o.Rec.Load()) }

// The two ways of holding a record anonymously.
var holds = []struct {
	name  string
	write func(b *Barriers, o *objmodel.Object, v uint64)
}{
	{"Write", func(b *Barriers, o *objmodel.Object, v uint64) { b.Write(o, 0, v) }},
	{"AcquireRelease", func(b *Barriers, o *objmodel.Object, v uint64) {
		tok := b.Acquire(o)
		b.AggWrite(o, 0, v, tok)
		b.Release(o, tok)
	}},
}

// TestRepeatedWriteLeavesClock: the first write to an object steps the clock
// (a fresh object's version is not above it) and releases ahead of it, so
// every further write, with no transaction reading the object in between,
// leaves the clock where it is.
func TestRepeatedWriteLeavesClock(t *testing.T) {
	for _, hold := range holds {
		t.Run(hold.name, func(t *testing.T) {
			h, cls, b := setup(t, false)
			o := h.New(cls)
			clock := h.Clock()
			before := clock.Load()
			hold.write(b, o, 1)
			stepped := clock.Load()
			if stepped != before+1 {
				t.Fatalf("first write moved the clock from %d to %d, want one step", before, stepped)
			}
			prior := releasedAhead(t, h, o, 1)
			for i := uint64(2); i < 10; i++ {
				hold.write(b, o, i)
				if c := clock.Load(); c != stepped {
					t.Fatalf("write %d moved the clock from %d to %d", i, stepped, c)
				}
				prior = releasedAhead(t, h, o, prior)
			}
			if got := b.Read(o, 0); got != 9 {
				t.Errorf("read %d, want 9", got)
			}
		})
	}
}

// TestWriteAfterTransactionalReadSteps: once a transaction has read the
// object, a live snapshot may hold it, and the next write steps the clock
// before it releases.
func TestWriteAfterTransactionalReadSteps(t *testing.T) {
	for _, name := range validating {
		for _, hold := range holds {
			t.Run(name+"/"+hold.name, func(t *testing.T) {
				rt, cls, b := clockSetup(t, name)
				h := rt.Heap()
				o := h.New(cls)
				hold.write(b, o, 1)
				hold.write(b, o, 2) // skipped: o leads the clock
				if err := rt.Atomic(func(tx stmapi.Txn) error {
					if got := tx.Read(o, 0); got != 2 {
						t.Errorf("transaction read %d, want 2", got)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				prior, before := version(o), h.Clock().Load()
				if before < prior {
					t.Fatalf("clock %d below the version %d a transaction has read", before, prior)
				}
				hold.write(b, o, 3)
				if c := h.Clock().Load(); c <= before {
					t.Errorf("write after a transactional read left the clock at %d", c)
				}
				releasedAhead(t, h, o, prior)
			})
		}
	}
}

// TestReadOfReleasedObjectExtendsOnce: a transaction that reads an object
// released ahead of the clock extends its snapshot over the version, exactly
// once, samples the object again and commits.
func TestReadOfReleasedObjectExtendsOnce(t *testing.T) {
	for _, name := range validating {
		t.Run(name, func(t *testing.T) {
			rt, cls, b := clockSetup(t, name)
			o, q := rt.Heap().New(cls), rt.Heap().New(cls)
			b.Write(o, 0, 41)
			b.Write(o, 0, 42)
			tr := trace.New(trace.Config{Shards: 1, ShardCapacity: 64})
			rt.SetTracer(tr)
			attempts := 0
			if err := rt.Atomic(func(tx stmapi.Txn) error {
				attempts++
				tx.Write(q, 0, tx.Read(o, 0)+tx.Read(o, 0))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			extends := 0
			for _, ev := range tr.Events() {
				if ev.Kind == trace.EvExtend {
					extends++
					if ev.Obj != uint64(o.Ref()) || ev.Ver != version(o) {
						t.Errorf("extension over object %d version %d, want object %d version %d", ev.Obj, ev.Ver, o.Ref(), version(o))
					}
				}
			}
			if extends != 1 || attempts != 1 || q.LoadSlot(0) != 84 {
				t.Errorf("%d extensions, %d attempts, q = %d; want 1, 1, 84", extends, attempts, q.LoadSlot(0))
			}
		})
	}
}

// TestVersionsMonotoneAcrossReleases: whichever way a release goes, stepping
// the clock or not, and whoever releases, a barrier or a commit, an object's
// version only rises.
func TestVersionsMonotoneAcrossReleases(t *testing.T) {
	for _, name := range validating {
		t.Run(name, func(t *testing.T) {
			rt, cls, b := clockSetup(t, name)
			h := rt.Heap()
			o := h.New(cls)
			prior := version(o)
			stepped, skipped := 0, 0
			check := func(what string) {
				t.Helper()
				if v := version(o); v <= prior {
					t.Fatalf("%s released at version %d after %d", what, v, prior)
				}
				prior = version(o)
			}
			for i := uint64(0); i < 60; i++ {
				switch i % 5 {
				case 2: // a reader raises the clock over o: the next write steps
					if err := rt.Atomic(func(tx stmapi.Txn) error { _ = tx.Read(o, 0); return nil }); err != nil {
						t.Fatal(err)
					}
					if version(o) != prior {
						t.Fatalf("a read-only transaction moved o from version %d to %d", prior, version(o))
					}
				case 4: // a committed write on top of a leading version
					if err := rt.Atomic(func(tx stmapi.Txn) error { tx.Write(o, 0, i); return nil }); err != nil {
						t.Fatal(err)
					}
					check("commit")
				default:
					c := h.Clock().Load()
					holds[i%2].write(b, o, i)
					if h.Clock().Load() == c {
						skipped++
					} else {
						stepped++
					}
					check(holds[i%2].name)
					releasedAhead(t, h, o, 0)
				}
			}
			if stepped == 0 || skipped == 0 {
				t.Errorf("%d stepping and %d skipping releases: the mix exercised only one", stepped, skipped)
			}
		})
	}
}

// TestWriteAfterValueKeepingBumpInvalidatesReader: an abort releases an object
// one version up with its values restored, and an irrevocable reader that
// wrote nothing releases its read claim one version up with the values
// untouched. Either leaves a snapshot that read the older version valid, and
// that version may be the clock's own. The bump must not read as "ahead of
// the clock, so nobody has read it" to the next non-transactional write: T,
// which read x before the bump, must not commit x's old value on the clock
// compare after that write.
func TestWriteAfterValueKeepingBumpInvalidatesReader(t *testing.T) {
	abort := errors.New("abort")
	for _, c := range []struct {
		runtime, name string
		bump          func(rt stmapi.Runtime, x *objmodel.Object) error
	}{
		{"eager", "abort", func(rt stmapi.Runtime, x *objmodel.Object) error {
			err := rt.Atomic(func(tx stmapi.Txn) error { tx.Write(x, 0, 99); return abort })
			if errors.Is(err, abort) {
				return nil
			}
			return errors.New("the aborting writer committed")
		}},
		{"eager", "read claim", func(rt stmapi.Runtime, x *objmodel.Object) error {
			return rt.AtomicIrrevocable(func(tx stmapi.Txn) error { _ = tx.Read(x, 0); return nil })
		}},
		{"lazy", "read claim", func(rt stmapi.Runtime, x *objmodel.Object) error {
			return rt.AtomicIrrevocable(func(tx stmapi.Txn) error { _ = tx.Read(x, 0); return nil })
		}},
	} {
		t.Run(c.runtime+"/"+c.name, func(t *testing.T) {
			rt, cls, b := clockSetup(t, c.runtime)
			x, q := rt.Heap().New(cls), rt.Heap().New(cls)
			// x becomes what the clock was last stepped for.
			if err := rt.Atomic(func(tx stmapi.Txn) error { tx.Write(x, 0, 1); return nil }); err != nil {
				t.Fatal(err)
			}
			level := version(x)
			if c := rt.Heap().Clock().Load(); c != level {
				t.Fatalf("x at version %d with the clock at %d: the interleaving needs them level", level, c)
			}
			attempts := 0
			if err := rt.Atomic(func(tx stmapi.Txn) error { // T
				attempts++
				v := tx.Read(x, 0)
				if attempts == 1 {
					if err := c.bump(rt, x); err != nil {
						t.Error(err)
					}
					if version(x) != level+1 || x.LoadSlot(0) != 1 {
						t.Errorf("x at version %d holding %d, want bumped to %d still holding 1", version(x), x.LoadSlot(0), level+1)
					}
					b.Write(x, 0, 2)
				}
				tx.Write(q, 0, v)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if got := q.LoadSlot(0); got != 2 || attempts != 2 {
				t.Errorf("q = %d after %d attempts: T committed x's value from before the non-transactional write; want 2 after 2", got, attempts)
			}
		})
	}
}
