// Package oracle is the dynamic soundness check for the whole-program
// barrier-elision manifest emitted by `stmvet elide`.
//
// The inter-procedural analyses (internal/vetstm/interproc) make two kinds
// of static claims about allocation sites:
//
//   - NAIT ("not accessed in transaction", Figure 12): no object born at
//     the site is ever touched inside an Atomic* body, so its
//     transactional barriers can be elided.
//   - TL (thread-local, §5.4): no object born at the site is ever reached
//     from a goroutine other than its allocator, so its isolation
//     barriers can be elided.
//
// Both claims are unfalsifiable from inside the analysis — that is the
// point of an oracle. This package watches an actual execution and fails
// loudly when reality contradicts the manifest: a NAIT-classified object
// observed in a transactional read or write, or a TL-classified object
// touched from a goroutine that did not allocate it. Under `go test
// -race` the workload doubles as a memory-level check that elided
// barriers did not reintroduce data races.
//
// Wiring: Attach registers an allocation observer on the heap (learning
// the object→site mapping and each object's allocating goroutine); the
// returned Oracle is a trace.Sink and nothing else. Install it on one
// Tracer and give that Tracer to both the runtime (transactional accesses)
// and strong.Barriers (non-transactional accesses, trace.EvNTRead and
// trace.EvNTWrite). When a causal flight recorder is supplied, trace
// events are forwarded to it and each transactional breach carries the
// recorder's conflict edges for the offending transaction — the "how did
// we get here" chain.
package oracle

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"repro/internal/causal"
	"repro/internal/objmodel"
	"repro/internal/trace"
)

// Kind discriminates the two ways an execution can contradict the manifest.
type Kind string

// Breach kinds.
const (
	// NAITBreach: an object from a nait/nait+tl site was read or written
	// inside a transaction.
	NAITBreach Kind = "nait-transactional-access"
	// TLBreach: an object from a tl/nait+tl site was touched from a
	// goroutine other than the one that allocated it.
	TLBreach Kind = "tl-cross-goroutine"
)

// Breach is one observed contradiction of the manifest.
type Breach struct {
	Kind            Kind
	Site            string             // manifest allocation-site ID ("file.go:line")
	Class           objmodel.SiteClass // the claim that was contradicted
	Obj             uint64             // heap handle of the offending object
	Slot            int                // slot accessed
	Write           bool               // access direction
	Txn             uint64             // transaction ID; 0 for non-transactional accesses
	AllocG, AccessG uint64             // allocating / accessing goroutine IDs
	Chain           string             // causal context from the flight recorder, if any
}

// String renders the breach for logs and test failures.
func (b Breach) String() string {
	dir := "read"
	if b.Write {
		dir = "write"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: site %s (class %s) obj=%d slot=%d %s", b.Kind, b.Site, b.Class, b.Obj, b.Slot, dir)
	if b.Txn != 0 {
		fmt.Fprintf(&sb, " in txn %d", b.Txn)
	}
	if b.Kind == TLBreach {
		fmt.Fprintf(&sb, " from goroutine %d (allocated on %d)", b.AccessG, b.AllocG)
	}
	if b.Chain != "" {
		fmt.Fprintf(&sb, "; causal: %s", b.Chain)
	}
	return sb.String()
}

// Config parameterizes an Oracle.
type Config struct {
	// Recorder, when non-nil, receives every trace event the oracle
	// observes (so one Tracer sink serves both) and supplies the causal
	// chain attached to transactional breaches.
	Recorder *causal.Recorder

	// MaxBreaches caps the retained breach list (distinct (kind, object)
	// pairs; repeats only bump the total). Zero means DefaultMaxBreaches.
	MaxBreaches int
}

// DefaultMaxBreaches is the retained-breach cap for a zero Config.
const DefaultMaxBreaches = 64

type tracked struct {
	site   *objmodel.ManifestSite
	allocG uint64
}

// Oracle validates manifest claims against an actual execution. Safe for
// concurrent use; create with Attach.
type Oracle struct {
	cfg Config

	mu       sync.Mutex
	objs     map[uint64]tracked // heap handle -> site + allocating goroutine
	seen     map[breachKey]bool // dedup for the retained list
	breaches []Breach
	total    int64 // every contradiction observed, including deduped repeats
	allocs   int64 // manifest-matched allocations tracked
}

type breachKey struct {
	kind Kind
	obj  uint64
}

// Attach creates an Oracle and registers it as an allocation observer on
// heap. The heap must have a manifest applied (allocation observers only
// fire for manifest-matched sites). Observers cannot be unregistered, so
// attach once per heap, before the workload allocates.
func Attach(heap *objmodel.Heap, cfg Config) *Oracle {
	if cfg.MaxBreaches <= 0 {
		cfg.MaxBreaches = DefaultMaxBreaches
	}
	o := &Oracle{
		cfg:  cfg,
		objs: make(map[uint64]tracked),
		seen: make(map[breachKey]bool),
	}
	heap.AddAllocObserver(o.onAlloc)
	return o
}

func (o *Oracle) onAlloc(obj *objmodel.Object, site *objmodel.ManifestSite) {
	g := goid()
	o.mu.Lock()
	o.objs[uint64(obj.Ref())] = tracked{site: site, allocG: g}
	o.allocs++
	o.mu.Unlock()
}

// Observe consumes one trace event (trace.Sink): install the oracle as the
// sink of the Tracer the runtime and the barriers share. Transactional
// reads and writes of NAIT-classified objects are breaches. Any access,
// transactional or not, to a TL-classified object is a breach when it runs
// on a goroutine other than the allocator's. (NAIT objects are *supposed*
// to be accessed non-transactionally, so only the goroutine check applies
// to EvNTRead and EvNTWrite.) The sink contract guarantees the call
// happens on the accessing goroutine, which is what makes the TL check
// meaningful here.
func (o *Oracle) Observe(ev trace.Event) {
	if o.cfg.Recorder != nil {
		o.cfg.Recorder.Observe(ev)
	}
	var write, txnal bool
	switch ev.Kind {
	case trace.EvRead:
		txnal = true
	case trace.EvWrite:
		write, txnal = true, true
	case trace.EvNTRead:
	case trace.EvNTWrite:
		write = true
	default:
		return
	}
	if ev.Obj == 0 {
		return
	}
	o.mu.Lock()
	tr, ok := o.objs[ev.Obj]
	o.mu.Unlock()
	if !ok {
		return
	}
	if txnal && (tr.site.Class == objmodel.SiteNAIT || tr.site.Class == objmodel.SiteNAITTL) {
		o.report(Breach{
			Kind: NAITBreach, Site: tr.site.ID, Class: tr.site.Class,
			Obj: ev.Obj, Slot: ev.Slot, Write: write, Txn: ev.Txn,
			AllocG: tr.allocG, AccessG: goid(),
		})
	}
	if tr.site.Class == objmodel.SiteTL || tr.site.Class == objmodel.SiteNAITTL {
		if g := goid(); g != tr.allocG {
			o.report(Breach{
				Kind: TLBreach, Site: tr.site.ID, Class: tr.site.Class,
				Obj: ev.Obj, Slot: ev.Slot, Write: write, Txn: ev.Txn,
				AllocG: tr.allocG, AccessG: g,
			})
		}
	}
}

func (o *Oracle) report(b Breach) {
	o.mu.Lock()
	o.total++
	k := breachKey{kind: b.Kind, obj: b.Obj}
	if o.seen[k] || len(o.breaches) >= o.cfg.MaxBreaches {
		o.mu.Unlock()
		return
	}
	o.seen[k] = true
	o.mu.Unlock()
	// Chain extraction snapshots the whole DAG; doing it outside the lock
	// and only for first-of-kind breaches keeps repeat breaches cheap.
	if b.Txn != 0 && o.cfg.Recorder != nil {
		b.Chain = chainFor(o.cfg.Recorder, b.Txn)
	}
	o.mu.Lock()
	o.breaches = append(o.breaches, b)
	o.mu.Unlock()
}

// chainFor renders the flight recorder's conflict edges touching txn —
// enough causal context to see who the offending transaction was entangled
// with when the manifest claim broke.
func chainFor(rec *causal.Recorder, txn uint64) string {
	g := rec.Graph()
	var parts []string
	for _, e := range g.Edges {
		if e.From.Txn != txn && e.To.Txn != txn {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s txn%d→txn%d obj=%d", e.Kind, e.From.Txn, e.To.Txn, e.Obj))
		if len(parts) == 4 {
			parts = append(parts, "…")
			break
		}
	}
	return strings.Join(parts, "; ")
}

// Breaches returns a copy of the retained breach list (distinct per
// (kind, object), capped at Config.MaxBreaches).
func (o *Oracle) Breaches() []Breach {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]Breach(nil), o.breaches...)
}

// Total returns every contradiction observed, including deduped repeats.
func (o *Oracle) Total() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.total
}

// Tracked returns the number of manifest-matched allocations seen.
func (o *Oracle) Tracked() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.allocs
}

// Err returns nil when the execution was consistent with the manifest, or
// an error summarizing the breaches otherwise.
func (o *Oracle) Err() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.total == 0 {
		return nil
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "oracle: %d manifest breach(es) across %d object(s):", o.total, len(o.breaches))
	for _, b := range o.breaches {
		sb.WriteString("\n  ")
		sb.WriteString(b.String())
	}
	return fmt.Errorf("%s", sb.String())
}

// goid parses the current goroutine's ID out of the runtime.Stack header
// ("goroutine N [...]"). Slow (a stack capture per call), but the oracle is
// a test harness, not a production path.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	const prefix = "goroutine "
	if len(b) < len(prefix) {
		return 0
	}
	b = b[len(prefix):]
	var id uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}
