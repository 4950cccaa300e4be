package trace

import (
	"sort"
	"sync"
	"sync/atomic"
)

// hotShards is the number of independent shards in a Hotspots table. Power
// of two.
const hotShards = 16

// hotCount accumulates one object's contention profile. Counters are
// atomic so bumps after the entry exists take no lock.
type hotCount struct {
	conflicts   atomic.Int64 // conflict-handler invocations against the object
	aborts      atomic.Int64 // aborts blamed on the object
	validations atomic.Int64 // commit-clock validation failures / extensions charged to the object
}

// hotShard is one shard of the table: a mutex-guarded map used only for
// entry lookup/insertion.
type hotShard struct {
	mu sync.Mutex
	m  map[uint64]*hotCount
	_  [24]byte
}

// Hotspots maps object handles to conflict/abort counts, answering "which
// objects cause my aborts". Sharded by a handle hash so concurrent
// transactions blaming different objects do not serialize; per-object
// counters are atomics, so repeat offenders cost one map lookup plus one
// atomic add.
type Hotspots struct {
	shards [hotShards]hotShard
}

func (h *Hotspots) get(obj uint64) *hotCount {
	// Fibonacci hash: object handles are small sequential integers, so use
	// the high bits of the product to decorrelate neighbours.
	s := &h.shards[(obj*0x9e3779b97f4a7c15)>>59&(hotShards-1)]
	s.mu.Lock()
	c := s.m[obj]
	if c == nil {
		if s.m == nil {
			s.m = make(map[uint64]*hotCount)
		}
		c = &hotCount{}
		s.m[obj] = c
	}
	s.mu.Unlock()
	return c
}

// BumpConflict counts one conflict-handler invocation against obj.
func (h *Hotspots) BumpConflict(obj uint64) { h.get(obj).conflicts.Add(1) }

// BumpAbort counts one abort blamed on obj.
func (h *Hotspots) BumpAbort(obj uint64) { h.get(obj).aborts.Add(1) }

// BumpValidation counts one commit-clock validation failure or snapshot
// extension charged to obj. Without this, clock-induced churn is invisible
// to the hotspot table that /metrics and stmtop show.
func (h *Hotspots) BumpValidation(obj uint64) { h.get(obj).validations.Add(1) }

// HotspotEntry is one object's contention profile.
type HotspotEntry struct {
	Obj         uint64 `json:"obj"`
	Conflicts   int64  `json:"conflicts"`
	Aborts      int64  `json:"aborts"`
	Validations int64  `json:"validations,omitempty"`
}

// Score orders hotspots: aborts are the costly outcome, conflicts the
// leading indicator, so aborts dominate and conflicts break ties.
// Validation churn (clock-extension walks, stale-snapshot aborts) sits in
// between: each event forces at least a read-set walk, so it outweighs a
// raw conflict probe but not a full abort.
func (e HotspotEntry) Score() int64 { return e.Aborts*1000 + e.Validations*8 + e.Conflicts }

// Top returns the n hottest objects, most contended first. n <= 0 returns
// every entry.
func (h *Hotspots) Top(n int) []HotspotEntry {
	var out []HotspotEntry
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		for obj, c := range s.m {
			out = append(out, HotspotEntry{
				Obj:         obj,
				Conflicts:   c.conflicts.Load(),
				Aborts:      c.aborts.Load(),
				Validations: c.validations.Load(),
			})
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if si, sj := out[i].Score(), out[j].Score(); si != sj {
			return si > sj
		}
		return out[i].Obj < out[j].Obj
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
