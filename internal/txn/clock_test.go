package txn_test

// The commit clock on every runtime: what each counts, and how a read above
// the begin-time snapshot is handled. Eager and lazy validate with the TL2
// clock compare and extend a snapshot with one read-set walk; mvstm reads
// its snapshot, stamps versions with the clock, and never validates reads.
// The walk mode is TestNoCommitClockWalks.

import (
	"testing"

	"repro/internal/stmapi"
)

// TestClockCounters: uncontended, every writing commit advances the clock
// exactly once and a read-only commit never does. Eager and lazy validate
// every commit with the single clock compare and never walk the read set;
// mvstm validates no reads, so it counts neither. The multi-version
// counters (snapshot reads, read-only commits, versions installed) count on
// mvstm alone.
func TestClockCounters(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		o := f.cell()
		const n = 50
		for i := 0; i < n; i++ {
			if err := f.rt.Atomic(func(tx stmapi.Txn) error {
				tx.Write(o, 0, tx.Read(o, 0)+1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		fastpath := int64(n)
		if name == "mvstm" {
			fastpath = 0
		}
		if s := f.rt.Stats(); s.ClockAdvances != n || s.FastpathValidations != fastpath || s.FallbackWalks != 0 {
			t.Errorf("clock advances %d, fastpath %d, walks %d; want %d, %d, 0",
				s.ClockAdvances, s.FastpathValidations, s.FallbackWalks, n, fastpath)
		}
		for i := 0; i < 5; i++ {
			if err := f.rt.Atomic(func(tx stmapi.Txn) error {
				_ = tx.Read(o, 0)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		s := f.rt.Stats()
		if s.ClockAdvances != n {
			t.Errorf("clock advances after read-only commits = %d, want %d", s.ClockAdvances, n)
		}
		if mv := s.SnapshotReads + s.ReadOnlyTxns + s.VersionsInstalled; (mv == 0) != (name != "mvstm") {
			t.Errorf("snapshot reads %d, read-only txns %d, versions installed %d: want them counted on mvstm alone",
				s.SnapshotReads, s.ReadOnlyTxns, s.VersionsInstalled)
		}
	})
}

// TestClockSnapshotExtends: T reads o1, an independent commit writes o2
// above T's snapshot, then T reads o2. Eager and lazy extend the snapshot
// with one read-set walk, which passes (o1 is unchanged), and read 6
// without restarting; mvstm reads its snapshot's 0 with no walk. Either way
// T commits once.
func TestClockSnapshotExtends(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		o1, o2 := f.cell(), f.cell()
		runs := 0
		if err := f.rt.Atomic(func(tx stmapi.Txn) error {
			runs++
			_ = tx.Read(o1, 0)
			if runs == 1 {
				if err := f.write(o2, 0, 6); err != nil {
					t.Fatal(err)
				}
			}
			tx.Write(o1, 1, tx.Read(o2, 0))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		want, walks := uint64(6), int64(1)
		if name == "mvstm" {
			want, walks = 0, 0
		}
		if runs != 1 || o1.LoadSlot(1) != want {
			t.Errorf("%d runs read %d, want 1 run reading %d", runs, o1.LoadSlot(1), want)
		}
		if got := f.rt.Stats().FallbackWalks; got != walks {
			t.Errorf("fallback walks = %d, want %d", got, walks)
		}
	})
}

// TestClockSnapshotExtensionFails: as TestClockSnapshotExtends, but the
// independent commit also overwrites o1, already read. Eager and lazy fail
// the extension's walk and restart; mvstm reads its snapshot and fails
// first-committer-wins on o1 at commit. All three re-run once and commit
// 5+6 from a consistent snapshot.
func TestClockSnapshotExtensionFails(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		o1, o2 := f.cell(), f.cell()
		runs := 0
		if err := f.rt.Atomic(func(tx stmapi.Txn) error {
			runs++
			v1 := tx.Read(o1, 0)
			if runs == 1 {
				if err := f.rt.Atomic(func(in stmapi.Txn) error {
					in.Write(o1, 0, 5)
					in.Write(o2, 0, 6)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			tx.Write(o1, 1, v1+tx.Read(o2, 0))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if runs != 2 || o1.LoadSlot(1) != 11 {
			t.Errorf("%d runs committed %d, want 2 runs committing 11", runs, o1.LoadSlot(1))
		}
		if got := f.rt.Stats().Aborts; got != 1 {
			t.Errorf("aborts = %d, want 1", got)
		}
	})
}
