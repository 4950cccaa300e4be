package txn

import (
	"sync/atomic"

	"repro/internal/stats"
	"repro/internal/stmapi"
)

// Stats aggregates runtime counters for experiments. Each counter is
// sharded across cache lines (package stats); transactions accumulate
// deltas in descriptor-local fields and flush them at commit/abort, so no
// per-access global atomic exists anywhere on the hot path. One struct
// serves every runtime; counters a runtime never feeds stay zero (see
// stmapi.StatsSnapshot for the semantics of each).
type Stats struct {
	Starts      stats.Counter // transaction attempts begun
	Commits     stats.Counter
	Aborts      stats.Counter // aborts of any cause (conflict, validation, retry)
	UserRetries stats.Counter // user-initiated retry operations
	TxnReads    stats.Counter
	TxnWrites   stats.Counter
	SelfAborts  stats.Counter // contention-policy SelfAbort decisions taken
	DoomsIssued stats.Counter // contention-policy AbortOther decisions that marked a victim

	// Robustness counters (recovery and irrevocability).
	ReaperSteals    stats.Counter // dead transactions reclaimed (reaper or inline waiter steal)
	Escalations     stats.Counter // atomic blocks escalated to irrevocable after K aborts
	IrrevocableTxns stats.Counter // transactions that finished while irrevocable
	IrrevocableNs   stats.Counter // cumulative irrevocable-token hold time, nanoseconds

	// Commit-clock validation counters.
	ClockAdvances       stats.Counter // successful clock-increment CASes at commit
	FastpathValidations stats.Counter // validations satisfied by the clock alone
	FallbackWalks       stats.Counter // validations that walked the read set

	// Multi-version counters and the watermark-lag gauge (how far the
	// reclamation watermark trailed the clock at the last collection).
	SnapshotReads     stats.Counter
	ReadOnlyTxns      stats.Counter
	ReadOnlyAborts    stats.Counter
	VersionsInstalled stats.Counter
	VersionsGCd       stats.Counter
	WatermarkLag      atomic.Int64
}

// Snapshot sums every counter's shards. Like Counter.Load it is not an
// atomic cut across counters, which is the usual statistics contract.
func (s *Stats) Snapshot() stmapi.StatsSnapshot {
	snap := stmapi.StatsSnapshot{
		Starts:      s.Starts.Load(),
		Commits:     s.Commits.Load(),
		Aborts:      s.Aborts.Load(),
		UserRetries: s.UserRetries.Load(),
		TxnReads:    s.TxnReads.Load(),
		TxnWrites:   s.TxnWrites.Load(),
		SelfAborts:  s.SelfAborts.Load(),
		DoomsIssued: s.DoomsIssued.Load(),

		ReaperSteals:    s.ReaperSteals.Load(),
		Escalations:     s.Escalations.Load(),
		IrrevocableTxns: s.IrrevocableTxns.Load(),
		IrrevocableNs:   s.IrrevocableNs.Load(),

		ClockAdvances:       s.ClockAdvances.Load(),
		FastpathValidations: s.FastpathValidations.Load(),
		FallbackWalks:       s.FallbackWalks.Load(),

		SnapshotReads:     s.SnapshotReads.Load(),
		ReadOnlyTxns:      s.ReadOnlyTxns.Load(),
		ReadOnlyAborts:    s.ReadOnlyAborts.Load(),
		VersionsInstalled: s.VersionsInstalled.Load(),
		VersionsGCd:       s.VersionsGCd.Load(),
		WatermarkLag:      s.WatermarkLag.Load(),
	}
	snap.VersionsLive = snap.VersionsInstalled - snap.VersionsGCd
	return snap
}

// flushStats drains the descriptor-local counters into the sharded
// aggregates. Called at commit and abort — the transaction boundaries where
// other threads may legitimately observe the totals.
func (tx *Txn) flushStats() {
	s := &tx.k.Counters
	hint := int(tx.id)
	flush := func(c *stats.Counter, n *int64) {
		if *n != 0 {
			c.AddShard(hint, *n)
			*n = 0
		}
	}
	flush(&s.Starts, &tx.nStarts)
	flush(&s.TxnReads, &tx.NReads)
	flush(&s.TxnWrites, &tx.NWrites)
	flush(&s.UserRetries, &tx.nRetries)
	flush(&s.SelfAborts, &tx.nSelfAborts)
	flush(&s.DoomsIssued, &tx.nDooms)
	flush(&s.ClockAdvances, &tx.nClockAdv)
	flush(&s.FastpathValidations, &tx.nFastpath)
	flush(&s.FallbackWalks, &tx.nWalks)
	flush(&s.SnapshotReads, &tx.NSnapReads)
	flush(&s.VersionsInstalled, &tx.NInstalled)
	flush(&s.VersionsGCd, &tx.NReclaimed)
}
