// Package stmapi defines the runtime-agnostic transactional memory API
// implemented by every STM runtime in this repository (internal/stm, eager
// versioning; internal/lazystm, lazy versioning; internal/mvstm,
// multi-version snapshot isolation). The runtimes share one transaction
// kernel, internal/txn, whose Kernel implements Runtime and DurableRuntime;
// each runtime embeds it, so a runtime is its own driver view, and
// registers through the kernel's helper.
//
// Runtime and Txn are small interfaces every runtime satisfies. Runtime
// carries fault injection and orphan reclaiming (SetInjector, ReapDead) too,
// so crash drivers probe for nothing; the optional capabilities are
// DurableRuntime and ReadOnlyRuntime. CommonConfig is the one configuration
// surface every runtime's New takes, StatsSnapshot is the shared counter
// snapshot they report — and the registry (Register, Runtimes, New) makes
// the set of runtimes itself a runtime value, so drivers enumerate and
// construct runtimes by name instead of hardcoding the list.
package stmapi

import (
	"context"
	"fmt"

	"repro/internal/conflict"
	"repro/internal/faultinject"
	"repro/internal/objmodel"
	"repro/internal/trace"
)

// Status is the lifecycle state of a transaction attempt. Every runtime
// aliases its Status type to this one, so the numeric encodings agree.
type Status uint32

// Transaction statuses.
const (
	Active Status = iota
	Committed
	Aborted
)

func (s Status) String() string {
	switch s {
	case Active:
		return "active"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("Status(%d)", uint32(s))
	}
}

// MaxGranularity is the largest version-management granularity a runtime
// supports (in slots).
const MaxGranularity = 2

// DefaultSelfAbortAfter is the default CommonConfig.SelfAbortAfter.
const DefaultSelfAbortAfter = 64

// CommonConfig is the configuration surface shared by every runtime. Fields
// a runtime has no use for are documented on the field; a runtime never
// rejects one, it ignores it.
type CommonConfig struct {
	// Granularity is the number of adjacent slots covered by one undo-log
	// entry (eager) or write-buffer span (lazy): 1 (field-granular, the
	// safe default) or 2 (reproduces the Section 2.4 granular anomalies).
	// The multi-version runtime accepts either value but always buffers
	// slot-granular, so it exhibits no granular anomalies.
	Granularity int

	// Quiescence enables the Section 3.4 guarantee: a commit returns only
	// after every transaction attempt in flight when it committed has ended,
	// its writes applied or undone and its records released, so data the
	// commit privatized is touched by no transaction afterwards.
	Quiescence bool

	// Handler is the contention policy a transaction resolves each conflict
	// with: wait and retry, self-abort, or doom the contended record's owner
	// (see internal/conflict). Nil means a conflict.Backoff, which Normalize
	// fills in.
	Handler conflict.Policy

	// SelfAbortAfter is the number of conflict-handler invocations a single
	// transactional access tolerates before the transaction aborts itself
	// and restarts (breaking writer-writer deadlocks). Zero means
	// DefaultSelfAbortAfter.
	SelfAbortAfter int

	// EscalateAfter is the graceful-degradation threshold: after this many
	// consecutive aborts of the same atomic block, the next attempt is
	// escalated to an irrevocable transaction (see Txn.BecomeIrrevocable),
	// which cannot lose an arbitration and therefore always makes progress.
	// Zero disables escalation (the default); negative is invalid.
	EscalateAfter int

	// NoCommitClock disables TL2-style commit-clock validation and falls
	// back to the original read-set walk at every validation point. The
	// multi-version runtime ignores it: the commit clock is what stamps
	// versions, so it cannot be turned off there. The
	// zero value — clock validation on — is the fast default: commit
	// validation is a single clock compare whenever no other transaction
	// committed since this one began, falling back to the walk only then.
	NoCommitClock bool
}

// Normalize fills defaulted fields in place and validates the result: the
// zero value of every field is a valid "use the default" request, anything
// else must be in range. It is called by every runtime's New.
func (c *CommonConfig) Normalize() error {
	if c.Granularity == 0 {
		c.Granularity = 1
	}
	if c.Granularity < 1 || c.Granularity > MaxGranularity {
		return fmt.Errorf("stmapi: unsupported granularity %d (want 1..%d)", c.Granularity, MaxGranularity)
	}
	if c.Handler == nil {
		c.Handler = &conflict.Backoff{}
	}
	if c.SelfAbortAfter == 0 {
		c.SelfAbortAfter = DefaultSelfAbortAfter
	}
	if c.SelfAbortAfter < 0 {
		return fmt.Errorf("stmapi: negative SelfAbortAfter %d", c.SelfAbortAfter)
	}
	if c.EscalateAfter < 0 {
		return fmt.Errorf("stmapi: negative EscalateAfter %d", c.EscalateAfter)
	}
	return nil
}

// StatsSnapshot is a copy of a runtime's counters as plain values. It is
// exact whenever no transaction is in flight. While transactions run it may
// lag: a transaction's counts are batched where its thread alone writes
// them, and published once per 64 flushes, before the thread blocks (a
// retry wait, the quiescence grace period, a durability wait) and when
// Stats finds the batch idle. So a snapshot misses at most 63 finished
// Atomics per thread inside a transaction at the call, and, like any
// statistics read, it is not an atomic cut across counters.
//
// A counter that names a step a runtime's protocol lacks stays zero there:
// the multi-version runtime validates no reads, so its FastpathValidations
// and FallbackWalks are zero (internal/txn's TestClockCounters), and the
// eager and lazy runtimes keep no version chains and no read-only path, so
// the multi-version counters are zero on them.
type StatsSnapshot struct {
	Starts      int64 `json:"starts"`
	Commits     int64 `json:"commits"`
	Aborts      int64 `json:"aborts"`
	UserRetries int64 `json:"user_retries"`
	TxnReads    int64 `json:"txn_reads"`
	TxnWrites   int64 `json:"txn_writes"`

	// SelfAborts and DoomsIssued are contention-policy outcomes: attempts
	// that aborted themselves on a policy's SelfAbort decision, and doom
	// requests issued against a visible owner on AbortOther decisions.
	SelfAborts  int64 `json:"policy_self_aborts,omitempty"`
	DoomsIssued int64 `json:"policy_dooms,omitempty"`

	// Recovery and irrevocability counters. ReaperSteals counts orphaned
	// transactions whose records were reclaimed (by a ReapDead sweep or an
	// inline-stealing waiter); Escalations counts atomic blocks escalated
	// to irrevocable after EscalateAfter consecutive aborts; IrrevocableTxns
	// counts transactions that ran irrevocably (escalated or explicit);
	// IrrevocableNs is the cumulative global-token hold time.
	ReaperSteals    int64 `json:"reaper_steals,omitempty"`
	Escalations     int64 `json:"escalations,omitempty"`
	IrrevocableTxns int64 `json:"irrevocable_txns,omitempty"`
	IrrevocableNs   int64 `json:"irrevocable_ns,omitempty"`

	// Commit-clock validation counters. ClockAdvances counts commits whose
	// clock-increment CAS succeeded (GV4 sampling means this is at most,
	// and under contention less than, the writing-commit count);
	// FastpathValidations counts validations satisfied by the single clock
	// compare; FallbackWalks counts validations that had to walk the read
	// set — stale snapshots at commit plus snapshot extensions at read.
	ClockAdvances       int64 `json:"clock_advances,omitempty"`
	FastpathValidations int64 `json:"fastpath_validations,omitempty"`
	FallbackWalks       int64 `json:"fallback_walks,omitempty"`

	// Multi-version counters. SnapshotReads counts reads satisfied at the
	// begin snapshot (from the object or its version chain) without
	// validation; ReadOnlyTxns counts transactions
	// that committed on the read-only path (AtomicRead, or Atomic bodies
	// that never wrote); ReadOnlyAborts counts read-only transactions that
	// aborted — zero by construction in mvstm, the litmus suite asserts it.
	// VersionsInstalled/VersionsGCd count chain nodes created and reclaimed
	// (VersionsLive is their difference at snapshot time); WatermarkLag is
	// the commit-clock distance the GC watermark trailed by when it was last
	// computed — how much history live snapshots were pinning.
	SnapshotReads     int64 `json:"snapshot_reads,omitempty"`
	ReadOnlyTxns      int64 `json:"read_only_txns,omitempty"`
	ReadOnlyAborts    int64 `json:"read_only_aborts,omitempty"`
	VersionsInstalled int64 `json:"versions_installed,omitempty"`
	VersionsLive      int64 `json:"versions_live,omitempty"`
	VersionsGCd       int64 `json:"versions_gcd,omitempty"`
	WatermarkLag      int64 `json:"watermark_lag,omitempty"`
}

// Fields enumerates the snapshot as name→value pairs, in a stable order,
// for exporters that render counters generically (internal/metrics).
func (s StatsSnapshot) Fields() []struct {
	Name  string
	Value int64
} {
	return []struct {
		Name  string
		Value int64
	}{
		{"starts", s.Starts},
		{"commits", s.Commits},
		{"aborts", s.Aborts},
		{"user_retries", s.UserRetries},
		{"txn_reads", s.TxnReads},
		{"txn_writes", s.TxnWrites},
		{"policy_self_aborts", s.SelfAborts},
		{"policy_dooms", s.DoomsIssued},
		{"reaper_steals", s.ReaperSteals},
		{"escalations", s.Escalations},
		{"irrevocable_txns", s.IrrevocableTxns},
		{"irrevocable_ns", s.IrrevocableNs},
		{"clock_advances", s.ClockAdvances},
		{"fastpath_validations", s.FastpathValidations},
		{"fallback_walks", s.FallbackWalks},
		{"snapshot_reads", s.SnapshotReads},
		{"read_only_txns", s.ReadOnlyTxns},
		{"read_only_aborts", s.ReadOnlyAborts},
		{"versions_installed", s.VersionsInstalled},
		{"versions_live", s.VersionsLive},
		{"versions_gcd", s.VersionsGCd},
		{"watermark_lag", s.WatermarkLag},
	}
}

// Txn is the transactional access interface inside an atomic block. Every
// runtime's concrete *Txn satisfies it directly.
type Txn interface {
	// ID returns the transaction's owner ID as encoded in acquired records.
	// IDs are assigned once per top-level Atomic from a runtime-monotonic
	// counter, so they double as age stamps: smaller ID = older.
	ID() uint64

	// Status returns the descriptor's current status.
	Status() Status

	// Attempt is the 0-based execution attempt of the atomic body.
	Attempt() int

	// Read opens o for reading at slot and returns the value.
	Read(o *objmodel.Object, slot int) uint64

	// Write opens o for writing at slot and stores v (in place for eager
	// versioning, buffered for lazy).
	Write(o *objmodel.Object, slot int, v uint64)

	// ReadRef and WriteRef are the reference-slot variants.
	ReadRef(o *objmodel.Object, slot int) objmodel.Ref
	WriteRef(o *objmodel.Object, slot int, r objmodel.Ref)

	// Retry aborts and blocks until some location in the read set changes,
	// then re-executes the body.
	Retry()

	// Restart aborts and re-executes the body immediately.
	Restart()

	// BecomeIrrevocable switches the transaction to irrevocable mode: it
	// acquires the runtime's single irrevocable token (waiting if another
	// transaction holds it), upgrades its read set to exclusive ownership so
	// commit validation cannot fail, and from then on never aborts — every
	// subsequent read acquires its record pessimistically and conflicting
	// transactions yield. Safe for I/O after the switch. If the read set is
	// already stale the transaction restarts (the switch has not happened,
	// so aborting is still legal). Must not be followed by Retry or a body
	// error (the runtime still cleans up, but the irrevocability guarantee
	// is forfeited).
	BecomeIrrevocable()

	// IsIrrevocable reports whether BecomeIrrevocable has taken effect for
	// the current attempt.
	IsIrrevocable() bool
}

// Runtime is the uniform driver-facing surface of an STM runtime. Every
// runtime's *Runtime is one; obtain one from its package's New, or by name
// from New.
type Runtime interface {
	// Name identifies the runtime's versioning discipline — the key it was
	// registered under (see Register). The set of names is open-ended:
	// drivers discover it through Runtimes() rather than enumerating
	// runtimes themselves.
	Name() string

	// Heap returns the managed heap the runtime is bound to.
	Heap() *objmodel.Heap

	// Atomic executes body as a top-level transaction, re-executing until
	// it commits. A body error aborts (rolls back) and is returned.
	Atomic(body func(Txn) error) error

	// AtomicCtx is Atomic with deadline/cancellation: a cancelled or
	// expired context aborts the transaction (rolling back any effects)
	// and returns ctx.Err(). An already-cancelled context returns
	// immediately without executing the body.
	AtomicCtx(ctx context.Context, body func(Txn) error) error

	// AtomicIrrevocable executes body as an irrevocable transaction: the
	// body runs at most once after the irrevocable switch (no aborts, no
	// re-execution past the switch), so it may perform I/O. A body error
	// still rolls back and is returned — returning an error from an
	// irrevocable body forfeits the no-reexecution guarantee and is a
	// caller bug.
	AtomicIrrevocable(body func(Txn) error) error

	// Stats snapshots the runtime's counters: exactly when no transaction
	// is in flight, and otherwise up to 63 finished Atomics short per
	// transaction in flight (see StatsSnapshot).
	Stats() StatsSnapshot

	// SetTracer installs (or, with nil, removes) the event tracer.
	SetTracer(t *trace.Tracer)

	// Tracer returns the installed tracer, or nil.
	Tracer() *trace.Tracer

	// ActiveTransactions returns the number of in-flight transactions.
	ActiveTransactions() int

	// SetInjector installs (or, with nil, removes) a fault injector. Like the
	// tracer it is sampled once per top-level Atomic.
	SetInjector(in *faultinject.Injector)

	// ReapDead reclaims the records of every transaction whose goroutine
	// died holding them (the faultinject Orphan action) and returns how many
	// it reclaimed. Waiters on an orphan reclaim it inline; a driver calls
	// this to reclaim orphans nobody is waiting on.
	ReapDead() int
}
