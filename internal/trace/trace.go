// Package trace is the STM's observability substrate: a low-overhead event
// recorder the three runtimes (internal/stm, internal/lazystm,
// internal/mvstm) and the non-transactional barriers (internal/strong) emit
// into when a Tracer is installed on them. It is the one record of a mixed
// history: transactional steps, the deferred-update commit window (commit
// point, each slot's write-back) and non-transactional barriered accesses
// share one Event shape and one Seq order.
//
// The paper's evaluation (Section 7) lives and dies on knowing *why*
// transactions abort and where contention concentrates; end-of-run
// aggregate counters cannot answer that. A Tracer records a bounded
// per-transaction event history — begin, read, write, lock-acquire,
// conflict, abort, retry, commit, each carrying the object handle and
// record version observed, plus the non-transactional reads and writes
// around them — into sharded ring buffers, and derives three
// live views from the stream:
//
//   - conflict attribution: a sharded hotspot table mapping object handle
//     to conflict and abort counts, so "which objects cause my aborts" is
//     one Top(n) call;
//   - latency histograms (log-bucketed, cache-line-padded) for commit
//     latency, abort-to-retry gaps, and quiescence waits;
//   - a JSON-serializable Snapshot combining counters, hotspots, and
//     histogram percentiles (consumed by internal/metrics and cmd/stmtop).
//
// Cost model: the runtimes guard every emission behind a single nil check
// on a descriptor-cached *Tracer, so the disabled path costs one
// predictable branch and stays allocation-free. The enabled path takes a
// timestamp and a short per-shard critical section; shards are selected by
// a goroutine-affine hint, so concurrent transactions rarely contend on
// the same ring.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Kind discriminates transaction lifecycle events.
type Kind uint8

// Event kinds, in rough lifecycle order.
const (
	EvBegin       Kind = iota // transaction attempt started
	EvRead                    // open-for-read succeeded
	EvWrite                   // transactional store (in place or buffered)
	EvLockAcquire             // transaction record CAS-ed to Exclusive
	EvConflict                // conflict handler invoked against an owned record
	EvAbort                   // attempt rolled back (Obj = blamed object, if known)
	EvRetry                   // user-initiated retry
	EvCommit                  // attempt committed
	EvSelfAbort               // contention policy decided SelfAbort (Obj = contended object)
	EvDoom                    // contention policy doomed the owner (Obj = contended object, Ver = victim ID)
	EvSteal                   // a waiter or sweep reclaimed a dead owner's records (Txn = reclaimer, Obj = object it waited on; 0 for a sweep; Ver = victim ID)
	EvEscalate                // atomic block escalated to irrevocable after K consecutive aborts (Slot = attempt)
	EvIrrevocable             // transaction became irrevocable (token acquired, read set locked)
	EvValidation              // commit-clock validation failed (Obj = stale object observed)
	EvExtend                  // read-time snapshot extension: version above snapshot, clock raised (Obj, Ver = version seen)
	EvNTRead                  // non-transactional barriered read (Txn 0; Ver = version read, 0 on a private object)
	EvNTWrite                 // non-transactional barriered write (Txn 0; Ver = version released, 0 on a private object)
	EvCommitPoint             // commit point passed, nothing installed or written back yet (Ver = write version)
	EvWriteBack               // deferred-update commit stored one buffered slot (Obj, Slot; Ver = write version)
	numKinds
)

var kindNames = [numKinds]string{
	"begin", "read", "write", "lock-acquire", "conflict", "abort", "retry", "commit",
	"self-abort", "doom", "steal", "escalate", "irrevocable",
	"validation", "extend",
	"nt-read", "nt-write", "commit-point", "write-back",
}

// String returns the kind's wire name (used as JSON keys in snapshots).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one step of a history. For a transactional kind Txn names the
// transaction. For EvNTRead and EvNTWrite Txn is 0 (no transaction ID is
// 0), and Ver is 0 only when the access took the Figure 10 private fast
// path: a public object's versions start at 1.
type Event struct {
	Kind Kind   `json:"kind"`
	Txn  uint64 `json:"txn"`           // transaction owner ID; 0 for an NT access or a background steal
	Obj  uint64 `json:"obj,omitempty"` // heap handle; 0 = not object-specific
	Slot int    `json:"slot"`          // slot index; meaningful for reads/writes
	Ver  uint64 `json:"ver,omitempty"` // record version observed at the step
	Seq  uint64 `json:"seq"`           // global monotonic sequence stamp (total order across shards)
	Unix int64  `json:"unix_ns"`       // wall-clock timestamp, nanoseconds
}

// Sink receives every recorded event synchronously, in Seq order per
// recording goroutine (the global order is the Seq stamp, not call order).
// Implementations must be safe for concurrent use and should be cheap: the
// call happens on the transaction's own goroutine inside the traced path.
type Sink interface {
	Observe(Event)
}

// SinkFunc adapts a function to Sink.
type SinkFunc func(Event)

// Observe calls f(ev).
func (f SinkFunc) Observe(ev Event) { f(ev) }

// Config parameterizes a Tracer.
type Config struct {
	// ShardCapacity is the number of events each ring shard retains before
	// overwriting its oldest entries. Zero means DefaultShardCapacity.
	ShardCapacity int

	// Shards is the number of independent ring shards (rounded up to a
	// power of two). Zero means DefaultShards.
	Shards int
}

// Defaults for Config's zero fields.
const (
	DefaultShardCapacity = 4096
	DefaultShards        = 16
)

// ring is one event ring shard. A mutex (not a lock-free scheme) keeps the
// recorder trivially race-free for live readers; the goroutine-affine shard
// choice keeps the lock all but uncontended.
type ring struct {
	mu     sync.Mutex
	buf    []Event
	total  uint64           // events ever recorded into this shard
	byKind [numKinds]uint64 // total by kind; the struct spans whole cache lines
}

func (r *ring) record(ev Event) {
	r.mu.Lock()
	r.buf[r.total%uint64(len(r.buf))] = ev
	r.total++
	r.byKind[ev.Kind]++
	r.mu.Unlock()
}

// snapshot appends the shard's retained events, oldest first.
func (r *ring) snapshot(dst []Event) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.buf))
	if r.total <= n {
		return append(dst, r.buf[:r.total]...)
	}
	start := r.total % n
	dst = append(dst, r.buf[start:]...)
	return append(dst, r.buf[:start]...)
}

// Tracer records transaction events and aggregates the derived views. All
// methods are safe for concurrent use. The zero Tracer is not usable; call
// New.
type Tracer struct {
	rings []ring
	mask  uint64

	// seq is the global monotonic sequence stamp. One shared atomic is a
	// deliberate trade: it serializes only *enabled* tracing (the disabled
	// path never reaches it) and buys a total order the sharded rings and
	// any attached Sink can be merged by.
	seq atomic.Uint64

	// sink, when set, observes every event synchronously after it is
	// stamped and ring-recorded. atomic.Pointer keeps the no-sink check to
	// one load on the traced path.
	sink atomic.Pointer[sinkBox]

	hot       Hotspots
	commitLat Histogram
	abortGap  Histogram
	quiesce   Histogram
	irrevHold Histogram
}

// New creates a Tracer. Total retained history is Shards×ShardCapacity
// events; older events are overwritten, never blocking a recorder.
func New(cfg Config) *Tracer {
	if cfg.ShardCapacity <= 0 {
		cfg.ShardCapacity = DefaultShardCapacity
	}
	n := cfg.Shards
	if n <= 0 {
		n = DefaultShards
	}
	pow := 1
	for pow < n {
		pow <<= 1
	}
	t := &Tracer{rings: make([]ring, pow), mask: uint64(pow - 1)}
	for i := range t.rings {
		t.rings[i].buf = make([]Event, cfg.ShardCapacity)
	}
	return t
}

// sinkBox wraps a Sink so a nil interface and "no sink" are both a nil
// pointer load.
type sinkBox struct{ s Sink }

// SetSink installs (or, with nil, removes) a synchronous event consumer.
// Safe to call while recording continues.
func (t *Tracer) SetSink(s Sink) {
	if s == nil {
		t.sink.Store(nil)
		return
	}
	t.sink.Store(&sinkBox{s: s})
}

// Sink returns the installed event consumer, or nil.
func (t *Tracer) Sink() Sink {
	if b := t.sink.Load(); b != nil {
		return b.s
	}
	return nil
}

// Record appends an event, stamped with the current time and a global
// sequence number, to the goroutine-affine ring shard, then feeds it to the
// sink if one is installed.
func (t *Tracer) Record(k Kind, txn, obj uint64, slot int, ver uint64) {
	ev := Event{
		Kind: k, Txn: txn, Obj: obj, Slot: slot, Ver: ver,
		Seq:  t.seq.Add(1),
		Unix: time.Now().UnixNano(),
	}
	// Mix the transaction ID into the stack-page hint: goroutine stacks
	// allocated from the same span share a page hint, and a pure-hint choice
	// then funnels whole worker pools into one or two shards (observed: 15 of
	// 16 shards idle under an 8-worker sweep). Txn IDs are fresh per Atomic,
	// so the mix keeps shard affinity for a transaction's lifetime while
	// spreading colliding goroutines across the ring.
	t.rings[(stackHint()^(txn*0x9e3779b97f4a7c15))&t.mask].record(ev)
	if b := t.sink.Load(); b != nil {
		b.s.Observe(ev)
	}
}

// stackHint returns a cheap shard hint that tends to differ between
// goroutines: the page of the caller's stack. Goroutine stacks are distinct
// heap allocations at least 2KB apart. Allocation-free.
func stackHint() uint64 {
	var x byte
	return uint64(uintptr(unsafe.Pointer(&x)) >> 11)
}

// Hot returns the conflict-attribution table.
func (t *Tracer) Hot() *Hotspots { return &t.hot }

// CommitLatency is the histogram of begin-to-commit durations.
func (t *Tracer) CommitLatency() *Histogram { return &t.commitLat }

// AbortGap is the histogram of abort-to-next-begin (retry) gaps.
func (t *Tracer) AbortGap() *Histogram { return &t.abortGap }

// QuiesceWait is the histogram of post-commit quiescence wait durations.
func (t *Tracer) QuiesceWait() *Histogram { return &t.quiesce }

// ObserveCommit records one begin-to-commit latency.
func (t *Tracer) ObserveCommit(d time.Duration) { t.commitLat.Observe(d.Nanoseconds()) }

// ObserveAbortGap records one abort-to-retry gap.
func (t *Tracer) ObserveAbortGap(d time.Duration) { t.abortGap.Observe(d.Nanoseconds()) }

// ObserveQuiesce records one quiescence wait.
func (t *Tracer) ObserveQuiesce(d time.Duration) { t.quiesce.Observe(d.Nanoseconds()) }

// IrrevocableHold is the histogram of irrevocable-token hold durations.
func (t *Tracer) IrrevocableHold() *Histogram { return &t.irrevHold }

// ObserveIrrevocableHold records one irrevocable-token hold duration
// (switch to release).
func (t *Tracer) ObserveIrrevocableHold(d time.Duration) { t.irrevHold.Observe(d.Nanoseconds()) }

// Count returns how many events of kind k have been recorded (including
// events since overwritten in the rings).
func (t *Tracer) Count(k Kind) int64 {
	_, byKind := t.counts()
	return byKind[k]
}

// Events returns the retained event history, oldest first, merged across
// shards by the global sequence stamp. Timestamps alone cannot order the
// merge: clocks on different shards can tie or run backwards under NTP
// slew, while Seq is a strict total order. The slice is a copy; recording
// continues unblocked.
func (t *Tracer) Events() []Event {
	var out []Event
	for i := range t.rings {
		out = t.rings[i].snapshot(out)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Recorded returns the total events recorded and how many of those have
// been overwritten (dropped from the retained history).
func (t *Tracer) Recorded() (total, dropped int64) {
	shards, _ := t.counts()
	for _, sc := range shards {
		total += sc.Total
		dropped += sc.Dropped
	}
	return total, dropped
}

// ShardCount reports one ring shard's recording totals.
type ShardCount struct {
	Total   int64 `json:"total"`
	Dropped int64 `json:"dropped"`
}

// RecordedByShard returns per-shard totals and drop counts, in shard order.
// Exporters use this to mark history gaps honestly: a drop on any shard
// means the merged Events() stream has a hole whose Seq range is unknown.
func (t *Tracer) RecordedByShard() []ShardCount {
	shards, _ := t.counts()
	return shards
}

// counts reads every ring's counters under its lock: the shard's total and
// drops, and the per-kind counts summed over the shards.
func (t *Tracer) counts() (shards []ShardCount, byKind [numKinds]int64) {
	shards = make([]ShardCount, len(t.rings))
	for i := range t.rings {
		r := &t.rings[i]
		r.mu.Lock()
		shards[i].Total = int64(r.total)
		if n := uint64(len(r.buf)); r.total > n {
			shards[i].Dropped = int64(r.total - n)
		}
		for k, n := range r.byKind {
			byKind[k] += int64(n)
		}
		r.mu.Unlock()
	}
	return shards, byKind
}

// Snapshot summarizes the tracer's derived views for export: per-kind event
// counts, the topN hottest objects, and histogram summaries. It is cheap
// relative to Events (no event copy) and JSON-serializable.
func (t *Tracer) Snapshot(topN int) Snapshot {
	shards, counts := t.counts()
	var total, dropped int64
	var byShard []int64
	for _, sc := range shards {
		total += sc.Total
		dropped += sc.Dropped
	}
	if dropped > 0 {
		byShard = make([]int64, len(shards))
		for i, sc := range shards {
			byShard[i] = sc.Dropped
		}
	}
	byKind := make(map[string]int64, int(numKinds))
	for k := Kind(0); k < numKinds; k++ {
		if n := counts[k]; n != 0 {
			byKind[k.String()] = n
		}
	}
	return Snapshot{
		Events:          total,
		Dropped:         dropped,
		DroppedByShard:  byShard,
		ByKind:          byKind,
		Hotspots:        t.hot.Top(topN),
		CommitLatency:   t.commitLat.Snapshot(),
		AbortToRetry:    t.abortGap.Snapshot(),
		QuiesceWait:     t.quiesce.Snapshot(),
		IrrevocableHold: t.irrevHold.Snapshot(),
	}
}

// Snapshot is the JSON-serializable summary served by internal/metrics.
type Snapshot struct {
	Events          int64             `json:"events"`
	Dropped         int64             `json:"dropped,omitempty"`
	DroppedByShard  []int64           `json:"dropped_by_shard,omitempty"` // per-shard drops, present when any shard dropped
	ByKind          map[string]int64  `json:"by_kind,omitempty"`
	Hotspots        []HotspotEntry    `json:"hotspots,omitempty"`
	CommitLatency   HistogramSnapshot `json:"commit_latency"`
	AbortToRetry    HistogramSnapshot `json:"abort_to_retry"`
	QuiesceWait     HistogramSnapshot `json:"quiesce_wait"`
	IrrevocableHold HistogramSnapshot `json:"irrevocable_hold"`
}
