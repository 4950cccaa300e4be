// Package txn is the transaction kernel shared by the three STM runtimes
// (internal/stm, eager versioning; internal/lazystm, lazy versioning;
// internal/mvstm, multi-version snapshot isolation). The paper describes one
// STM (Section 3: transaction records, open-for-read and open-for-write,
// validation, commit, quiescence) whose versioning discipline is the
// variable part; this package is everything that is not versioning, written
// once:
//
//   - the descriptor (Txn) with its identity, arbitration, recovery,
//     irrevocability, cancellation, tracing and statistics state, the pool
//     it is recycled through, and the registry of live descriptors, a
//     fixed slot array kept packed at its low end so scans cost the number
//     of goroutines in transactions, not the array (registry.go);
//   - the retry / escalate / irrevocable loop that runs each Atomic as one
//     flat transaction, the control-flow signals bodies raise, and the
//     common tail of abort and commit (atomic.go);
//   - conflict arbitration: policy consultation, dooming, inline stealing
//     from dead owners, the irrevocable claim (conflict.go);
//   - commit-clock validation for the two validating runtimes: snapshot,
//     extension, the commit fast path, the read-set walk (validate.go);
//   - the commit protocol, one sequence of steps for all three runtimes,
//     each step a Strategy hook, with the phase it reached recorded for
//     recovery (commit.go); the commit-time locking of the two
//     deferred-update runtimes (deferred.go); and the Section 3.4
//     quiescence, a grace period over the attempts in flight (atomic.go);
//   - orphan recovery, one reclaim path (Reap) that waiters run inline and
//     a ReapDead sweep runs for drivers, and the irrevocable token
//     (recovery.go), and statistics batched per registry slot (stats.go);
//   - the driver surface: Kernel implements stmapi.Runtime and
//     stmapi.DurableRuntime, so a runtime that embeds it is its own driver
//     view, and Register is the helper every runtime registers through.
//
// A runtime embeds Kernel in its Runtime and Txn (or Deferred, which embeds
// Txn) in its descriptor, keeps its Read and Write barriers as concrete
// methods that reach kernel state through the embedded fields (no generic
// call on any access; bodies reach them through stmapi.Txn), and plugs its
// versioning in through Strategy, whose steps the kernel calls a handful of
// times per attempt.
package txn

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/objmodel"
	"repro/internal/objset"
	"repro/internal/stmapi"
	"repro/internal/trace"
	"repro/internal/txrec"
)

// Strategy is the versioning seam: what a runtime's descriptor implements so
// the kernel can drive it. Every method is per attempt (or rarer); nothing
// here is on the access path. The commit protocol is the kernel's (commit.go);
// a runtime supplies its steps, which the kernel runs in protocol order, and
// the kernel Txn and Deferred answer every step a runtime has no part in.
type Strategy interface {
	// Base returns the kernel descriptor embedded in the runtime's (promoted
	// from the embedded Txn; runtimes do not write it).
	Base() *Txn

	// Begin resets the runtime's per-attempt state (write set, begin
	// stamps). The kernel has already reset its own and taken the
	// clock snapshot.
	Begin()

	// ReadOnly reports whether the attempt commits on the zero-metadata
	// path: nothing to lock, validate, write back, log or wait for (a
	// multi-version body that wrote nothing). The kernel Txn answers false.
	ReadOnly() bool

	// LockWriteSet takes the write set's records at commit (a no-op where
	// the body took them); Validate then validates the read set, or stamps,
	// and leaves the write version in WV. false from either means the
	// attempt must abort and retry, holding only what Rollback releases.
	LockWriteSet() bool
	Validate() bool

	// Install saves what the commit overwrites, past the commit point and
	// before the write-back (mvstm's version chains). WriteBack stores the
	// buffered writes, under the held records; the kernel also calls it,
	// untraced, to complete a write-back a panic or a death cut short, so
	// storing an entry twice must be harmless. Redo appends the commit's
	// redo image (what it wrote, as the slots hold it after write-back) to
	// dst. Exit leaves whatever the runtime entered to commit: once the
	// records are released, and again, harmlessly, wherever a panic or a
	// death ended the attempt.
	Install()
	WriteBack()
	Redo(dst []stmapi.RedoWrite) []stmapi.RedoWrite
	Exit()

	// Rollback undoes the attempt's effects on shared memory and releases
	// every record it holds: an abort's, and, run by the kernel, that of
	// an attempt that ended before its commit point without one (an orphan
	// a reaper reclaims, a panic out of the commit).
	Rollback()

	// RetryWait blocks a user Retry until re-execution may observe something
	// new, or ctx (nil for none) is done.
	RetryWait(ctx context.Context) error

	// LockReadSet completes the irrevocable switch once the token is held:
	// whatever makes the attempt's reads impossible to invalidate. false
	// means a read is already stale; the kernel surrenders the token and
	// restarts the attempt, so the runtime must leave its holdings in a
	// state Rollback releases.
	LockReadSet() bool

	// Reset drops every object reference the runtime's part of the
	// descriptor holds, before it returns to the pool.
	Reset()
}

// Kernel is the runtime-level half of the transaction kernel. A runtime
// embeds it by value in its Runtime struct, so the kernel's stmapi.Runtime
// and stmapi.DurableRuntime methods are the runtime's own surface, and
// initializes it in place with Init.
type Kernel struct {
	// counters are the runtime's published statistics; Stats drains the
	// registry's free slots into them and snapshots them.
	counters totals

	// Clock is the heap's commit clock, cached to skip a pointer hop per
	// validation; ClockOn is whether commit-clock validation is enabled
	// (stmapi.CommonConfig.NoCommitClock unset).
	Clock   *objmodel.CommitClock
	ClockOn bool

	heap     *objmodel.Heap
	name     string
	cfg      stmapi.CommonConfig
	newTxn   func() Strategy
	nextID   atomic.Uint64 // the last ID of the last block of owner IDs taken (getTxn)
	reg      registry
	pool     sync.Pool  // idle *Txn descriptors
	idle     Txn        // the sentinel Stats claims free slots with
	statsMu  sync.Mutex // one Stats drain at a time
	tracer   atomic.Pointer[trace.Tracer]
	injector atomic.Pointer[faultinject.Injector]
	sink     atomic.Pointer[sinkBox]

	// irrevToken is the runtime's single irrevocable-transaction token: the
	// owner ID of the current irrevocable transaction, 0 when free. Exactly
	// one transaction may be irrevocable at a time, because two transactions
	// guaranteed never to abort could deadlock on each other's records.
	irrevToken atomic.Uint64
}

// Init prepares k in place: name is the stmapi registry name, cfg is
// normalized (Config reports the defaults that took effect), and newTxn
// allocates one runtime descriptor with its embedded Txn zeroed. An invalid
// configuration panics here rather than misbehaving later.
func (k *Kernel) Init(name string, heap *objmodel.Heap, cfg stmapi.CommonConfig, newTxn func() Strategy) {
	if err := cfg.Normalize(); err != nil {
		panic(name + ": " + err.Error())
	}
	k.heap = heap
	k.Clock = heap.Clock()
	k.ClockOn = !cfg.NoCommitClock
	k.name = name
	k.cfg = cfg
	k.newTxn = newTxn
	k.idle.status.Store(uint32(stmapi.Aborted))
}

// Register registers a kernel-based runtime with stmapi under name: the
// factory normalizes the configuration (an invalid one is an error here, not
// New's panic) and returns whatever mk constructs.
func Register(name string, mk func(*objmodel.Heap, stmapi.CommonConfig) stmapi.Runtime) {
	stmapi.Register(name, func(heap *objmodel.Heap, cfg stmapi.CommonConfig) (stmapi.Runtime, error) {
		if err := cfg.Normalize(); err != nil {
			return nil, err
		}
		return mk(heap, cfg), nil
	})
}

// Name returns the stmapi registry name the kernel was initialized with.
func (k *Kernel) Name() string { return k.name }

// Heap returns the managed heap the runtime is bound to.
func (k *Kernel) Heap() *objmodel.Heap { return k.heap }

// Config returns the normalized configuration the kernel was initialized
// with.
func (k *Kernel) Config() stmapi.CommonConfig { return k.cfg }

// SetTracer installs (or, with nil, removes) the event tracer. Descriptors
// sample the tracer when a top-level Atomic begins, so transactions already
// in flight keep their previous setting. With no tracer installed the hot
// path pays one nil check per emission point and nothing else.
func (k *Kernel) SetTracer(t *trace.Tracer) { k.tracer.Store(t) }

// Tracer returns the installed tracer, or nil.
func (k *Kernel) Tracer() *trace.Tracer { return k.tracer.Load() }

// SetInjector installs (or, with nil, removes) a fault injector. Like the
// tracer it is sampled once per top-level Atomic and guarded by a single nil
// check per injection point, so the uninstrumented hot path is unchanged.
func (k *Kernel) SetInjector(in *faultinject.Injector) { k.injector.Store(in) }

// sinkBox wraps a CommitSink so it can live in an atomic.Pointer (which
// needs a concrete element type) regardless of the sink's dynamic type.
// poisoned is set once a commit past its commit point ended without its
// redo record (reclaim): memory then holds effects no log does, so every
// later commit through the box appends nothing and fails (ErrSinkPoisoned).
type sinkBox struct {
	s        stmapi.CommitSink
	poisoned atomic.Bool
}

// ErrSinkPoisoned is the error of a commit through a commit sink that an
// earlier commit was lost to: that commit passed its commit point and
// ended, by a panic or a thread death, before its redo record reached the
// sink. The commit is applied in memory, like every commit that returns an
// error, and logged nowhere; so is every later one through the same sink,
// until a sink is installed again (SetCommitSink).
var ErrSinkPoisoned = errors.New("txn: commit sink poisoned: an earlier commit's effects were never logged")

// SetCommitSink installs (or, with nil, removes) the durable commit sink
// (stmapi.DurableRuntime), clearing a poisoned one's poison. Sampled once
// per top-level Atomic like the tracer; transactions in flight keep their
// previous setting.
func (k *Kernel) SetCommitSink(s stmapi.CommitSink) {
	if s == nil {
		k.sink.Store(nil)
		return
	}
	k.sink.Store(&sinkBox{s: s})
}

// ActiveTransactions returns the number of registered descriptors whose
// status is Active (for tests and monitoring). Scans the slot array without
// allocating.
func (k *Kernel) ActiveTransactions() int {
	n := 0
	k.reg.forEach(func(tx *Txn) bool {
		if tx.Status() == stmapi.Active {
			n++
		}
		return true
	})
	return n
}

// ForEach calls f for every registered descriptor until f returns false
// (the multi-version watermark and commit gate scan the live set this way).
// It skips the sentinel Stats parks in free slots, which is no runtime's
// descriptor and reads and commits nothing.
func (k *Kernel) ForEach(f func(*Txn) bool) {
	k.reg.forEach(func(tx *Txn) bool { return tx == &k.idle || f(tx) })
}

// Txn is the kernel half of a transaction descriptor; each runtime's
// descriptor embeds one and adds its read/write-set representation. A
// descriptor is confined to the goroutine running the atomic body; other
// threads read only the atomic fields. Descriptors are pooled: outside an
// Atomic call one may be reused by any goroutine, so user code must not
// retain it past the body.
//
// Fields the runtimes' barriers and commit protocols touch are exported;
// the rest is reachable only through kernel methods.
type Txn struct {
	// The fields other threads read, together on the descriptor's first
	// cache line and padded off from the rest: contenders scan every
	// registered descriptor's stamp to find a record's owner, and the
	// owner's own accesses write its sets and counters constantly — sharing
	// a line between the two makes every scan a miss for the owner. These
	// change once per attempt at most, so the line stays shared-clean.
	//
	// Arbitration: stamp mirrors id but is readable cross-thread (contention
	// policies look an owner's descriptor up by ID); doomed is the advisory
	// abort-other flag a winning transaction sets — the victim notices at
	// its next access, conflict wait, or commit and restarts; karma
	// accumulates invested work across aborted attempts of the same atomic
	// block for priority-based policies; irrevStamp mirrors Irrevocable
	// (policies and doom consult it).
	//
	// Recovery: dead is the death certificate: a release-store of true
	// publishes every prior write of the dying goroutine (its whole
	// descriptor) to any reclaimer that acquires it, and is the ONLY
	// condition under which another thread may touch the rest of this
	// descriptor; reaping elects one reclaimer.
	//
	// Quiescence: flight is odd while an attempt is in flight. It is stepped
	// only under CommonConfig.Quiescence: by the owner at begin and once the
	// attempt has released everything, by the reclaimer for an orphan (Reap).
	flight     atomic.Uint64
	status     atomic.Uint32
	stamp      atomic.Uint64
	doomed     atomic.Bool
	karma      atomic.Int64
	dead       atomic.Bool
	reaping    atomic.Bool
	irrevStamp atomic.Bool
	_          [64]byte

	k    *Kernel
	self Strategy   // the runtime descriptor embedding this one; set once at allocation
	api  stmapi.Txn // self as the driver-facing interface, asserted once at allocation

	// id is the current incarnation's owner ID; [idNext, idEnd) is the
	// unused rest of the descriptor's block of IDs (getTxn).
	id, idNext, idEnd uint64

	slot    int // registry slot index, -1 when in overflow; the next claim tries it first
	attempt int

	// Reads holds the first-read version per object (unused by the
	// multi-version runtime, which validates nothing); Owned holds the
	// version saved at acquire for every record this attempt holds.
	Reads objset.VerSet
	Owned objset.VerSet

	// RV is the commit-clock snapshot this attempt's reads are consistent
	// with: every read at a version <= RV is covered, a read above it
	// extends the snapshot. WV is the write version ValidateCommit or
	// Stamp obtained, 0 for a commit that changed no shared value; every
	// release path, including a reaper completing an orphan, stamps with it.
	RV uint64
	WV uint64

	// Irrevocable is goroutine-local (hot-path checks by the owner);
	// irrevAt feeds the token-hold-time metrics.
	Irrevocable bool
	irrevAt     time.Time

	// Ctx is the cancellation context installed by AtomicCtx; nil for plain
	// Atomic, in which case no cancellation checks run anywhere.
	Ctx context.Context

	// FI, sink and Tr are the fault injector, commit sink and tracer sampled
	// when the top-level Atomic began; nil (the default) disables every hook
	// behind one predictable branch. redo is the sink's scratch record,
	// reused across commits.
	FI   *faultinject.Injector
	sink *sinkBox
	redo []stmapi.RedoWrite
	Tr   *trace.Tracer

	// phase is how far this attempt's commit got (commit.go); reclaim ends
	// an attempt a panic or a death cut short by it.
	phase phase

	// Blame is the handle of the object a pending abort is attributed to;
	// beginAt/abortAt feed the commit-latency and abort-to-retry histograms.
	Blame   uint64
	beginAt time.Time
	abortAt time.Time

	// Statistics (stats.go). The per-access and per-attempt counts are
	// descriptor fields, moved into the batch at commit and abort; the
	// rarer ones are added to batch directly: the batch of the registry
	// slot the descriptor holds, or spill, its own, in the overflow.
	NReads, NWrites, NSnapReads, NInstalled int64
	NReclaimed                              int64 // chain nodes this attempt's installs severed
	NReadOnly, NReadOnlyAborts              int64 // multi-version read-only commits and aborts
	nStarts                                 int64
	batch, spill                            *batch
}

// Base returns tx; runtime descriptors satisfy Strategy.Base by promotion.
func (tx *Txn) Base() *Txn { return tx }

// Self returns the runtime descriptor that embeds tx.
func (tx *Txn) Self() Strategy { return tx.self }

// ID returns the transaction's owner ID as encoded in acquired records.
func (tx *Txn) ID() uint64 { return tx.id }

// Status returns the descriptor's current status.
func (tx *Txn) Status() stmapi.Status { return stmapi.Status(tx.status.Load()) }

// Attempt returns the 0-based retry attempt of the current top-level
// execution (0 on the first try).
func (tx *Txn) Attempt() int { return tx.attempt }

// Dead reports whether the descriptor's goroutine died holding it (the
// death certificate is set); only then may another thread reclaim it.
func (tx *Txn) Dead() bool { return tx.dead.Load() }

// Doomed reports whether a contention policy marked this attempt for abort.
func (tx *Txn) Doomed() bool { return tx.doomed.Load() }

// idBlock is how many owner IDs a descriptor takes from the kernel's counter
// at once, so that a begin writes the runtime-wide counter's cache line once
// every idBlock top-level Atomics instead of every time.
const idBlock = 64

// getTxn fetches a pooled descriptor (or allocates the first time), assigns
// a fresh owner ID, and registers it. The ID comes from the descriptor's own
// block; an exhausted block is refilled with the next idBlock IDs of the
// runtime-wide counter. IDs are never reused, so a fresh one per top-level
// Atomic keeps record-ownership comparisons and findStamp ABA-free across
// descriptor reuse; the ID survives the Atomic's retries.
//
// As an age stamp (conflict.Info) a block ID follows begin order up to the
// block: a descriptor still spending a block taken earlier hands out IDs
// below those of blocks taken later. A retrying transaction is therefore
// outranked by IDs from blocks taken before its own only, at most idBlock-1
// from each other descriptor, and after those it is older than every
// newcomer, which keeps Timestamp starvation-free.
func (k *Kernel) getTxn(ctx context.Context) *Txn {
	tx, _ := k.pool.Get().(*Txn)
	if tx == nil {
		s := k.newTxn()
		tx = s.Base()
		tx.k, tx.self = k, s
		tx.api, _ = s.(stmapi.Txn)
	}
	if tx.idNext == tx.idEnd {
		tx.idEnd = k.nextID.Add(idBlock) + 1
		tx.idNext = tx.idEnd - idBlock
	}
	tx.id = tx.idNext
	tx.idNext++
	tx.Ctx = ctx
	tx.Tr = k.tracer.Load()
	tx.FI = k.injector.Load()
	tx.sink = k.sink.Load()
	tx.Blame = 0
	tx.abortAt = time.Time{}
	// Each atomic flag is stored only if it differs: a sequentially
	// consistent store costs a locked instruction even when the value is
	// already in place. dead and reaping are false on every pooled
	// descriptor, because putTxn retires a dead one and only a dead one is
	// reaped; doomed is cleared by begin. The owner is the only writer of
	// karma and irrevStamp, so a load is enough to know.
	if tx.karma.Load() != 0 {
		tx.karma.Store(0)
	}
	tx.Irrevocable = false
	if tx.irrevStamp.Load() {
		tx.irrevStamp.Store(false)
	}
	// Publish the stamp before the descriptor becomes reachable through the
	// registry, so policy lookups never observe a stale incarnation's ID.
	tx.stamp.Store(tx.id)
	k.reg.add(tx)
	return tx
}

// putTxn unregisters the descriptor, drops every object reference it holds
// (so pooled descriptors never pin dead heap objects or leak state into
// their next incarnation), and returns it to the pool — unless the
// transaction died: a dead descriptor's records are (or will be) reclaimed
// by a reaper, which must find its write set intact, so it is retired, never
// reused. A panic out of the commit (a sink's or a trace sink's, say) leaves
// the attempt neither committed nor aborted, its counts unflushed, so it
// ends here as a reaper ends an orphan that died at the same point
// (reclaim), and the token is surrendered: a pooled descriptor holds no
// record, token or delta.
func (k *Kernel) putTxn(tx *Txn) {
	if tx.dead.Load() {
		tx.self.Exit() // the unwind leaves what it entered; the records wait for the reaper
		return
	}
	if tx.nStarts != 0 {
		tx.reclaim()
		tx.dropIrrevocable()
		tx.flushStats()
	}
	tx.land()
	k.reg.remove(tx)
	tx.self.Reset()
	tx.Reads.Reset()
	tx.Owned.Reset()
	tx.Ctx = nil
	tx.FI = nil
	tx.sink = nil
	tx.redo = tx.redo[:0]
	k.pool.Put(tx)
}

func (tx *Txn) begin() {
	k := tx.k
	if k.cfg.Quiescence { // even to odd, before the attempt's first access
		tx.flight.Store(tx.flight.Load() + 1)
	}
	tx.status.Store(uint32(stmapi.Active))
	// A doom aimed at a finished attempt is consumed. One that lands after
	// the load hits this attempt, as it would after an unconditional store.
	if tx.doomed.Load() {
		tx.doomed.Store(false)
	}
	tx.nStarts++
	tx.Reads.Reset()
	tx.Owned.Reset()
	tx.WV = 0
	tx.phase = phaseBody
	if k.ClockOn {
		tx.RV = k.Clock.Load()
	}
	tx.self.Begin()
	if tr := tx.Tr; tr != nil {
		tx.beginAt = time.Now()
		if !tx.abortAt.IsZero() {
			tr.ObserveAbortGap(tx.beginAt.Sub(tx.abortAt))
			tx.abortAt = time.Time{}
		}
		tr.Record(trace.EvBegin, tx.id, 0, 0, 0)
	}
}

// Publish is the publication rule of dynamic escape analysis (Section 4),
// for eager's in-place store and a deferred-update write-back alike: on a
// heap that mints private objects, a non-zero reference stored into a
// non-private object publishes the subgraph it references at the store,
// before commit, since a doomed transaction in another thread may reach
// whatever the store makes reachable. The heap is asked, not a runtime
// option that could disagree with it and leave a private-born object
// reachable from a public one.
func (tx *Txn) Publish(o *objmodel.Object, slot int, v uint64) {
	h := tx.k.heap
	if v != 0 && h.MintsPrivate() && o.IsRefSlot(slot) && !txrec.IsPrivate(o.Rec.Load()) {
		h.PublishRef(objmodel.Ref(v))
	}
}
