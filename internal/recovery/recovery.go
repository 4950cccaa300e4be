// Package recovery implements orphaned-transaction detection and safe lock
// stealing for the STM runtimes.
//
// The paper's ownership protocol (Figure 8) assumes every transaction that
// takes a record to Exclusive eventually releases it. A goroutine that dies
// mid-protocol breaks that assumption: its records stay Exclusive forever
// and every waiter spins on a lock that will never be released. This
// package supplies the liveness half the protocol is missing:
//
//   - Every descriptor carries an epoch heartbeat — a plain counter the
//     owning goroutine bumps at begin and on every conflict-wait slow path.
//     Heartbeats cost nothing on the hot path (no clocks) and let the
//     reaper distinguish "progressing" from "possibly stuck".
//
//   - A stale heartbeat alone only ever makes a transaction a *suspect*.
//     Suspicion never steals: a live owner may simply be descheduled, and
//     stealing from a live eager-mode owner — replaying its undo log while
//     it keeps writing in place — would corrupt memory. Suspects are
//     reported (metrics, stmtop) for operators.
//
//   - Stealing requires a confirmed death certificate: the runtime marks
//     the descriptor dead (an atomic release-store, so everything the dead
//     goroutine wrote happens-before any reaper that observes the flag)
//     when the goroutine is known to have terminated — today at the
//     faultinject Orphan points, in a managed runtime at thread teardown.
//     Only then does Reclaim replay the orphan's undo log (eager) or
//     discard its buffers (lazy), restore its records to Shared, and wake
//     the waiters.
//
// The Reaper is a periodic scanner over a runtime's registry (the Target
// interface, implemented by both runtimes). Waiters additionally steal
// inline — a conflict wait that finds its owner dead reclaims it on the
// spot — so orphans are recovered within a bounded wait even with no
// reaper running.
package recovery

import (
	"sync"
	"time"

	"repro/internal/stmapi"
)

// TxnInfo is one registered transaction as seen by a reaper scan.
type TxnInfo struct {
	ID          uint64        // owner ID (the descriptor's current stamp)
	Beat        uint64        // heartbeat epoch counter
	Status      stmapi.Status // lifecycle status at scan time
	Dead        bool          // confirmed death certificate: records are stealable
	Irrevocable bool          // holds the runtime's irrevocable token
}

// Target is the runtime surface a Reaper scans. Every runtime exposes one
// via its Recovery() method.
type Target interface {
	// Name identifies the runtime (a stmapi registry name), for reports.
	Name() string

	// VisitTxns calls f for every registered descriptor.
	VisitTxns(f func(TxnInfo))

	// Reclaim steals the records of the transaction with the given ID,
	// provided its descriptor is marked dead: eager runtimes replay the
	// orphan's undo log and release its records to Shared; lazy runtimes
	// discard buffers, restore (or, past the commit point, release) the
	// records. Either way the orphan's attempt ends, so a quiescing
	// committer stops waiting on it. Returns false if the transaction is
	// gone, alive, or already being reclaimed.
	Reclaim(id uint64) bool
}

// Suspect is a live transaction whose heartbeat has not advanced for at
// least the configured suspicion window. Reported, never stolen from.
type Suspect struct {
	ID      uint64        `json:"id"`
	Beat    uint64        `json:"beat"`
	Stalled time.Duration `json:"stalled_ns"` // time since the beat last advanced
}

// Config parameterizes a Reaper.
type Config struct {
	// Interval is the background scan period. Zero means DefaultInterval.
	Interval time.Duration

	// SuspectAfter is how long a heartbeat may stall before the transaction
	// is reported as a suspect. Zero means DefaultSuspectAfter.
	SuspectAfter time.Duration
}

// Defaults for Config's zero fields.
const (
	DefaultInterval     = 5 * time.Millisecond
	DefaultSuspectAfter = 250 * time.Millisecond
)

// Report summarizes one scan.
type Report struct {
	Active   int       `json:"active"`   // live descriptors seen
	Reaped   int       `json:"reaped"`   // dead descriptors reclaimed this scan
	Suspects []Suspect `json:"suspects"` // stalled-heartbeat transactions (not stolen from)
}

// beatObs is the reaper's memory of one transaction's heartbeat.
type beatObs struct {
	beat  uint64
	since time.Time // when this beat value was first observed
}

// Reaper periodically scans a Target, reclaims confirmed-dead transactions,
// and tracks heartbeat-stall suspects. Construct with NewReaper; Start/Stop
// manage the background goroutine, or drive scans manually with ScanOnce.
type Reaper struct {
	t   Target
	cfg Config

	mu      sync.Mutex
	seen    map[uint64]beatObs
	stop    chan struct{}
	done    chan struct{}
	started bool

	steals int64 // reclaims performed by this reaper (mu)
	scans  int64 // scans performed (mu)
}

// NewReaper builds a Reaper over t. The reaper holds no reference to
// transactions between scans beyond the heartbeat bookkeeping.
func NewReaper(t Target, cfg Config) *Reaper {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = DefaultSuspectAfter
	}
	return &Reaper{t: t, cfg: cfg, seen: make(map[uint64]beatObs)}
}

// Start launches the background scan loop. Idempotent while running.
func (r *Reaper) Start() {
	r.mu.Lock()
	if r.started {
		r.mu.Unlock()
		return
	}
	r.started = true
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	stop, done := r.stop, r.done
	r.mu.Unlock()
	go func() {
		defer close(done)
		tick := time.NewTicker(r.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				r.ScanOnce()
			}
		}
	}()
}

// Stop halts the background loop and waits for it to exit. Idempotent.
func (r *Reaper) Stop() {
	r.mu.Lock()
	if !r.started {
		r.mu.Unlock()
		return
	}
	r.started = false
	stop, done := r.stop, r.done
	r.mu.Unlock()
	close(stop)
	<-done
}

// ScanOnce performs one scan: reclaim every confirmed-dead transaction,
// refresh heartbeat bookkeeping, and report stalled suspects. Safe to call
// concurrently with the background loop (Reclaim is idempotent per victim).
func (r *Reaper) ScanOnce() Report {
	now := time.Now()
	var rep Report
	var deadIDs []uint64
	live := make(map[uint64]uint64) // id -> beat, this scan

	r.t.VisitTxns(func(ti TxnInfo) {
		if ti.Dead {
			deadIDs = append(deadIDs, ti.ID)
			return
		}
		rep.Active++
		live[ti.ID] = ti.Beat
	})

	for _, id := range deadIDs {
		if r.t.Reclaim(id) {
			rep.Reaped++
		}
	}

	r.mu.Lock()
	r.scans++
	r.steals += int64(rep.Reaped)
	// Drop bookkeeping for transactions that finished; advance or age the
	// rest. A transaction whose beat is unchanged since SuspectAfter ago is
	// a suspect — stalled, but with no death certificate, so left alone.
	for id := range r.seen {
		if _, ok := live[id]; !ok {
			delete(r.seen, id)
		}
	}
	for id, beat := range live {
		obs, ok := r.seen[id]
		if !ok || obs.beat != beat {
			r.seen[id] = beatObs{beat: beat, since: now}
			continue
		}
		if stalled := now.Sub(obs.since); stalled >= r.cfg.SuspectAfter {
			rep.Suspects = append(rep.Suspects, Suspect{ID: id, Beat: beat, Stalled: stalled})
		}
	}
	r.mu.Unlock()
	return rep
}

// Steals returns how many transactions this reaper's scans have reclaimed.
func (r *Reaper) Steals() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.steals
}

// Scans returns how many scans have run.
func (r *Reaper) Scans() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.scans
}
