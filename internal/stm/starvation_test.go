package stm

// Flight-recorder starvation litmus: the machine-checkable form of the
// ROADMAP's bounded-abort item. Two hammer workers take turns holding one
// hot object for ~100µs per transaction; a victim transaction needs the
// same object for an instant. Under plain backoff the victim's self-abort
// threshold restarts it with no memory of its suffering, so it loses the
// re-acquisition race to the hammerers indefinitely — the recorder's
// conflict DAG shows victim transactions with >= K consecutive aborts.
// Karma retains the victim's accumulated priority across restarts of the
// same transaction, so its rank grows until it dooms whichever hammerer
// is in its way and commits: the victim's consecutive aborts stay bounded
// below the same K. Both claims are asserted against the recorder's
// conflict graph — the same data `stmtrace starve` analyzes offline —
// which is what makes the litmus CI-checkable instead of eyeball-able.

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/causal"
	"repro/internal/conflict"
	"repro/internal/stmapi"
	"repro/internal/trace"
)

// starveK is the consecutive-abort bound: backoff's victim must exceed it,
// karma's must stay under it.
const starveK = 8

// starvationRun drives the hammer/victim workload with a flight recorder
// attached until stop returns true (checked every 20ms) or the deadline
// expires, then reports the victim's worst consecutive-abort streak, how
// many victim transactions committed, and the final graph.
type starvationRun struct {
	victimConsec  int
	victimCommits int
	graph         *causal.Graph
}

func runStarvationLitmus(t *testing.T, policy conflict.Policy, selfAbortAfter int,
	deadline time.Duration, stop func(starvationRun) bool) starvationRun {
	t.Helper()
	tr := trace.New(trace.Config{})
	rec := causal.NewRecorder(causal.Config{})
	tr.SetSink(rec)
	f := newFixture(t, stmapi.CommonConfig{
		Handler:        policy,
		SelfAbortAfter: selfAbortAfter,
	})
	f.rt.SetTracer(tr)
	hot := f.newCell()

	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				// Errors here are only ever the final context cancellation.
				_ = f.rt.AtomicCtx(ctx, func(tx stmapi.Txn) error {
					tx.Write(hot, 0, uint64(w+1))
					time.Sleep(100 * time.Microsecond) // long hold
					return nil
				})
			}
		}()
	}

	var mu sync.Mutex
	victimIDs := make(map[uint64]bool)
	commits := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			err := f.rt.AtomicCtx(ctx, func(tx stmapi.Txn) error {
				mu.Lock()
				victimIDs[tx.ID()] = true
				mu.Unlock()
				tx.Write(hot, 0, 100)
				return nil
			})
			if err == nil {
				mu.Lock()
				commits++
				mu.Unlock()
			}
		}
	}()

	snapshot := func() starvationRun {
		g := rec.Graph()
		mu.Lock()
		defer mu.Unlock()
		return starvationRun{
			victimConsec:  maxConsecutiveAborts(g, victimIDs),
			victimCommits: commits,
			graph:         g,
		}
	}
	var run starvationRun
	for ctx.Err() == nil {
		time.Sleep(20 * time.Millisecond)
		run = snapshot()
		if stop(run) {
			break
		}
	}
	cancel()
	wg.Wait()
	return snapshot()
}

// maxConsecutiveAborts walks the graph's attempt spans (already in
// sequence order) and returns the longest aborted-attempt streak among the
// given transactions. Attempts still running when the run was cancelled
// don't break or extend a streak.
func maxConsecutiveAborts(g *causal.Graph, txns map[uint64]bool) int {
	streak := make(map[uint64]int)
	max := 0
	for _, a := range g.Attempts {
		if !txns[a.Txn] {
			continue
		}
		switch a.Outcome {
		case causal.Aborted:
			streak[a.Txn]++
			if streak[a.Txn] > max {
				max = streak[a.Txn]
			}
		case causal.Committed:
			streak[a.Txn] = 0
		}
	}
	return max
}

func TestBackoffStarvationVisibleInConflictDAG(t *testing.T) {
	// Self-abort threshold low enough that a victim blown through by a
	// ~100µs hold restarts instead of waiting it out; backoff forgets the
	// loss, so the victim's losing streak grows without bound.
	run := runStarvationLitmus(t, &conflict.Backoff{}, 16, 20*time.Second,
		func(r starvationRun) bool { return r.victimConsec >= starveK })
	if run.victimConsec < starveK {
		t.Fatalf("backoff should starve the victim past %d consecutive aborts; saw %d (victim commits %d)",
			starveK, run.victimConsec, run.victimCommits)
	}
	rep := causal.Analyze(run.graph)
	if rep.WastedWorkRatio <= 0 {
		t.Fatalf("a starving run must report wasted work; ratio = %v", rep.WastedWorkRatio)
	}
	if rep.EdgeCounts["aborted-by"] == 0 {
		t.Fatalf("threshold restarts while waiting must yield aborted-by edges; edges = %v", rep.EdgeCounts)
	}
	t.Logf("backoff: victim consecutive aborts %d, victim commits %d, wasted %.1f%%, edges %v",
		run.victimConsec, run.victimCommits, 100*rep.WastedWorkRatio, rep.EdgeCounts)
}

func TestKarmaBoundsVictimConsecutiveAborts(t *testing.T) {
	// Same workload, but the self-abort threshold is disabled: conflictWait
	// checks the threshold before consulting the policy, so a low cap would
	// blindly restart karma's victim exactly like backoff and measure the
	// threshold, not the arbitration. With dooms as the only abort source,
	// the victim's karma survives restarts and its rank grows until it
	// dooms its way in.
	start := time.Now()
	run := runStarvationLitmus(t, &conflict.Karma{}, 1<<30, 10*time.Second,
		func(r starvationRun) bool {
			return time.Since(start) >= 500*time.Millisecond && r.victimCommits > 0
		})
	if run.victimCommits == 0 {
		t.Fatal("karma victim never committed")
	}
	if run.victimConsec >= starveK {
		t.Fatalf("karma must bound the victim's consecutive aborts below %d; saw %d (victim commits %d)",
			starveK, run.victimConsec, run.victimCommits)
	}
	rep := causal.Analyze(run.graph)
	t.Logf("karma: victim consecutive aborts %d, victim commits %d, edges %v",
		run.victimConsec, run.victimCommits, rep.EdgeCounts)
}
