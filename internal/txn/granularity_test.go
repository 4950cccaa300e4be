package txn_test

// Version-management granularity (Section 2.4) on every runtime: at
// Granularity 2 a write versions the span of two adjacent slots, and a
// non-transactional store to the other slot of the span is lost on
// whichever path writes the stale span back. Lazy's in-transaction read of
// the stale neighbour (the granular inconsistent read) is lazystm's own
// TestGranularSnapshotServesStaleNeighbour.

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/stmapi"
)

// TestSpanPoisoning runs the trial at each granularity and on each path out
// of the body: slot 1 is committed as 7, a transaction writes slot 0, a
// non-transactional store puts 99 in slot 1 while the transaction holds
// the span, and the attempt restarts once and commits, aborts on its body's
// error, or commits. Eager's undo entry holds the span, so its rollback, on
// restart or abort, restores 7 over the store; its commit leaves memory as
// it is. Lazy's write buffer holds the span, so its write-back, on commit,
// restores 7; a restart re-buffers the span with the store in it. mvstm
// buffers single slots whatever the granularity and loses nothing; at
// Granularity 1 no runtime does.
func TestSpanPoisoning(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		for _, g := range []int{2, 1} {
			for _, path := range []string{"restart", "abort", "commit"} {
				t.Run(fmt.Sprintf("g%d-%s", g, path), func(t *testing.T) {
					f := newFixture(t, name, stmapi.CommonConfig{Granularity: g})
					o := f.cell()
					if err := f.write(o, 1, 7); err != nil {
						t.Fatal(err)
					}
					runs := 0
					err := f.rt.Atomic(func(tx stmapi.Txn) error {
						runs++
						tx.Write(o, 0, 1)
						if runs > 1 {
							return nil
						}
						o.StoreSlot(1, 99)
						switch path {
						case "restart":
							tx.Restart()
						case "abort":
							return errAborted
						}
						return nil
					})
					want0 := uint64(1)
					if path == "abort" {
						want0 = 0
						if !errors.Is(err, errAborted) {
							t.Fatalf("err = %v, want %v", err, errAborted)
						}
					} else if err != nil {
						t.Fatal(err)
					}
					want1 := uint64(99)
					if g == 2 && (name == "eager" && path != "commit" || name == "lazy" && path == "commit") {
						want1 = 7
					}
					if got0, got1 := o.LoadSlot(0), o.LoadSlot(1); got0 != want0 || got1 != want1 {
						t.Errorf("slots = (%d,%d), want (%d,%d)", got0, got1, want0, want1)
					}
				})
			}
		}
	})
}
