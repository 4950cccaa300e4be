package txn

import (
	"sync/atomic"

	"repro/internal/stmapi"
)

// Statistics cost a commit no locked instruction. A descriptor counts with
// plain stores while it runs: per-access counts in its own fields, which
// flushStats moves at every commit and abort, and the rest straight into
// the batch of the registry slot the descriptor holds, which only the
// slot's holder touches. The batch reaches the runtime totals (locked adds)
// only
//
//   - once per statsBatch flushes of the slot;
//   - before the holder blocks: a user Retry's wait, the quiescence grace
//     period, a durability wait (Run, awaitCommitted), so a count a waiter
//     polls for shows while the transaction that made it waits;
//   - from Stats, which claims each free slot whose batch is marked full
//     with the idle sentinel, drains it and frees it again. The holder
//     marks it with one atomic store at the batch's first flush, and
//     whoever publishes the batch clears the mark.
//
// A descriptor in the registry's overflow holds no slot and publishes at
// every flush. So Stats is exact whenever no transaction is in flight, and
// while some are it misses at most statsBatch-1 finished Atomics per slot
// that is busy at the call (each finished Atomic flushed at least once).

// counter indexes the kernel's statistics: a descriptor's deltas, a slot's
// batch and the runtime totals are arrays over it.
type counter uint8

const (
	cStarts counter = iota
	cCommits
	cAborts
	cUserRetries
	cTxnReads
	cTxnWrites
	cSelfAborts
	cDoomsIssued
	cReaperSteals
	cEscalations
	cIrrevocableTxns
	cIrrevocableNs
	cClockAdvances
	cFastpathValidations
	cFallbackWalks
	cSnapshotReads
	cReadOnlyTxns
	cReadOnlyAborts
	cVersionsInstalled
	cVersionsGCd
	numCounters
)

// statsBatch is how many flushes a registry slot's batch takes before it is
// published to the totals.
const statsBatch = 64

// batch is a registry slot's unpublished deltas, written with plain stores
// by whoever holds the slot: its descriptor, the reclaimer of a dead one
// (Reap), or Stats' idle sentinel. It fills its 256-byte allocation, so no
// two batches share a cache line.
type batch struct {
	n int64 // flushes since the last publish
	d [numCounters]int64
	_ [256 - 8*(int(numCounters)+1)]byte
}

// totals are the runtime's published statistics, one atomic total per
// counter, padded off the kernel fields every transaction reads.
type totals struct {
	_            [64]byte
	v            [numCounters]atomic.Int64
	watermarkLag atomic.Int64 // a gauge: how far mvstm's watermark trailed the clock when last computed
	_            [64]byte
}

// publish adds b's deltas to the totals and empties b.
func (t *totals) publish(b *batch) {
	for c, n := range &b.d {
		if n != 0 {
			t.v[c].Add(n)
			b.d[c] = 0
		}
	}
	b.n = 0
}

// Stats returns the runtime's counters. It first drains every free registry
// slot's batch, one caller at a time, so that a caller that runs while
// another drains does not read totals short of a batch the other holds. The
// result is exact when no transaction is in flight; otherwise it may miss up
// to statsBatch-1 finished Atomics per slot busy at the call, and, like any
// statistics read, it is not an atomic cut across counters.
func (k *Kernel) Stats() stmapi.StatsSnapshot {
	k.statsMu.Lock()
	k.reg.drain(&k.idle, &k.counters)
	k.statsMu.Unlock()
	v := &k.counters.v
	s := stmapi.StatsSnapshot{
		Starts:      v[cStarts].Load(),
		Commits:     v[cCommits].Load(),
		Aborts:      v[cAborts].Load(),
		UserRetries: v[cUserRetries].Load(),
		TxnReads:    v[cTxnReads].Load(),
		TxnWrites:   v[cTxnWrites].Load(),
		SelfAborts:  v[cSelfAborts].Load(),
		DoomsIssued: v[cDoomsIssued].Load(),

		ReaperSteals:    v[cReaperSteals].Load(),
		Escalations:     v[cEscalations].Load(),
		IrrevocableTxns: v[cIrrevocableTxns].Load(),
		IrrevocableNs:   v[cIrrevocableNs].Load(),

		ClockAdvances:       v[cClockAdvances].Load(),
		FastpathValidations: v[cFastpathValidations].Load(),
		FallbackWalks:       v[cFallbackWalks].Load(),

		SnapshotReads:     v[cSnapshotReads].Load(),
		ReadOnlyTxns:      v[cReadOnlyTxns].Load(),
		ReadOnlyAborts:    v[cReadOnlyAborts].Load(),
		VersionsInstalled: v[cVersionsInstalled].Load(),
		VersionsGCd:       v[cVersionsGCd].Load(),
		WatermarkLag:      k.counters.watermarkLag.Load(),
	}
	s.VersionsLive = s.VersionsInstalled - s.VersionsGCd
	return s
}

// CountVersionsGCd adds n chain nodes reclaimed outside any transaction (a
// full multi-version collection) to VersionsGCd.
func (k *Kernel) CountVersionsGCd(n int64) { k.counters.v[cVersionsGCd].Add(n) }

// SetWatermarkLag records how far the multi-version watermark trailed the
// commit clock when it was last computed.
func (k *Kernel) SetWatermarkLag(lag int64) { k.counters.watermarkLag.Store(lag) }

// flushStats ends an attempt's accounting (its commit or abort already
// counted): the descriptor's count fields are moved into its batch with
// plain stores. Every statsBatch-th flush of a slot publishes its batch; a
// descriptor in the overflow publishes its own batch at every flush.
func (tx *Txn) flushStats() {
	b := tx.batch
	b.d[cStarts] += tx.nStarts
	b.d[cTxnReads] += tx.NReads
	b.d[cTxnWrites] += tx.NWrites
	b.d[cSnapshotReads] += tx.NSnapReads
	b.d[cVersionsInstalled] += tx.NInstalled
	b.d[cVersionsGCd] += tx.NReclaimed
	b.d[cReadOnlyTxns] += tx.NReadOnly
	b.d[cReadOnlyAborts] += tx.NReadOnlyAborts
	tx.nStarts, tx.NReads, tx.NWrites, tx.NSnapReads = 0, 0, 0, 0
	tx.NInstalled, tx.NReclaimed, tx.NReadOnly, tx.NReadOnlyAborts = 0, 0, 0, 0
	if b.n++; b.n == statsBatch || tx.slot < 0 {
		tx.publishStats()
	} else if b.n == 1 {
		tx.k.reg.slots[tx.slot].full.Store(true)
	}
}

// publishStats publishes the batch of the slot tx holds: every statsBatch
// flushes, and before tx blocks.
func (tx *Txn) publishStats() {
	tx.k.counters.publish(tx.batch)
	if tx.slot >= 0 {
		tx.k.reg.slots[tx.slot].full.Store(false)
	}
}
