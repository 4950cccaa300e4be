// Package stats provides sharded counters for statistics that threads bump
// with no descriptor to batch them in: the conflict package's decision
// counts and the tracer's per-kind event counts are its only users. (The
// transaction kernel's counters batch in the registry slot a descriptor
// holds instead and cost a commit no locked instruction; see
// internal/txn/stats.go.)
//
// A single atomic counter bumped by every thread serializes the whole
// system on one cache line — exactly the scalability failure the paper's
// Section 7 results are about avoiding. A Counter spreads its value over
// NumShards cache-line-padded slots so concurrent adders (almost always)
// touch distinct lines; Load sums the shards. Readers are assumed rare
// relative to writers: bumped millions of times per run, read once at the
// end.
package stats

import (
	"sync/atomic"
	"unsafe"
)

// NumShards is the number of independent shards per counter. Power of two.
const NumShards = 16

// shard is one counter slot padded out to a 64-byte cache line so that
// adjacent shards never share a line (false sharing would defeat the point).
type shard struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a sharded monotonic counter. The zero value is ready to use.
type Counter struct {
	shards [NumShards]shard
}

// Load returns the current total across all shards. It is not a snapshot of
// a single instant (adds may interleave with the sum), which is the usual
// contract for statistics counters.
func (c *Counter) Load() int64 {
	var t int64
	for i := range c.shards {
		t += c.shards[i].v.Load()
	}
	return t
}

// AddShard adds d to the shard selected by hint (masked into range). Callers
// that already own a cheap quasi-unique value — a transaction ID, a thread
// index — pass it here so concurrent adders spread across lines.
func (c *Counter) AddShard(hint int, d int64) {
	c.shards[hint&(NumShards-1)].v.Add(d)
}

// Add adds d on a shard chosen by Hint.
func (c *Counter) Add(d int64) {
	c.AddShard(Hint(), d)
}

// Hint returns a cheap shard hint that tends to differ between goroutines:
// the page of the caller's stack. Goroutine stacks are distinct heap
// allocations at least 2KB apart, so concurrent callers on different
// goroutines usually land on different shards. Allocation-free.
func Hint() int {
	var x byte
	return int(uintptr(unsafe.Pointer(&x)) >> 11)
}
