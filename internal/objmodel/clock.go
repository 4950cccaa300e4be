package objmodel

import (
	"fmt"
	"sync/atomic"

	"repro/internal/txrec"
)

// clockLimit is the ceiling at which the commit clock refuses to advance.
// Version numbers live in the upper 61 bits of a transaction-record word
// (txrec.MaxVersion); committed releases stamp object versions from the
// clock, so the clock must stay clear of that ceiling with margin for the
// +1 version bumps that abort paths and non-transactional barriers (whose
// word-level +9 release also increments the version field by just 1) apply
// on top of stamped versions. 2^61 ticks are unreachable in practice — the guard
// exists so a wraparound would be a loud panic, never a silent validation
// false-negative (a wrapped clock could equal a stale snapshot and let the
// fast path admit an inconsistent read set).
const clockLimit = txrec.MaxVersion - (1 << 20)

// CommitClock is a heap-global version clock for TL2-style commit
// validation. Transactions snapshot it at begin; any committed or
// non-transactional write that changes object state advances it, so
// "clock still equals my snapshot" proves no object version changed since
// begin and read-set validation collapses to one compare.
//
// Advancement is sampled in the GV4 style ("pass on failure"): a committer
// attempts one CAS to increment the clock and, if another committer got
// there first, adopts the new value instead of retrying. Concurrent
// committers may share a write version — both hold disjoint record
// ownership and both validated, so sharing a stamp is safe — and the hot
// cache line takes at most one successful write per tick instead of one
// per committer.
//
// The counter is padded to a cache line on each side so clock traffic
// never false-shares with neighbouring heap fields.
type CommitClock struct {
	_ [64]byte
	v atomic.Uint64
	_ [64]byte
}

// Load returns the current clock value.
func (c *CommitClock) Load() uint64 { return c.v.Load() }

// Tick advances the clock by one in the pass-on-failure style, for writers
// that need the clock moved past its current value but do not need the
// resulting stamp: non-transactional write barriers and orphan reapers. If
// the CAS fails some other writer advanced the clock concurrently, which
// serves the same purpose.
func (c *CommitClock) Tick() {
	cur := c.v.Load()
	if cur >= clockLimit {
		panic(fmt.Sprintf("objmodel: commit clock overflow (value %#x)", cur))
	}
	c.v.CompareAndSwap(cur, cur+1)
}

// Advance obtains a write version for a committing transaction: it attempts
// to increment the clock and returns the post-increment value, or — if a
// concurrent committer won the race — the raced-ahead value it observes
// instead (GV4). advanced reports whether this caller's CAS performed the
// increment, for stats.
func (c *CommitClock) Advance() (wv uint64, advanced bool) {
	cur := c.v.Load()
	if cur >= clockLimit {
		panic(fmt.Sprintf("objmodel: commit clock overflow (value %#x)", cur))
	}
	if c.v.CompareAndSwap(cur, cur+1) {
		return cur + 1, true
	}
	return c.v.Load(), false
}

// AdvanceFrom moves the clock from cur to cur+1 with a single CAS and
// reports whether this caller performed the step. A committer passes a
// value it sampled before the validation that justifies its commit: success
// proves no other writer obtained a version in between, so the step is
// both the end of that validation and the commit's write version (cur+1).
// On failure nothing changed; the caller re-samples and re-validates.
func (c *CommitClock) AdvanceFrom(cur uint64) bool {
	if cur >= clockLimit {
		panic(fmt.Sprintf("objmodel: commit clock overflow (value %#x)", cur))
	}
	return c.v.CompareAndSwap(cur, cur+1)
}

// Raise lifts the clock to at least v. Readers use it when they observe an
// object version above their snapshot — abort releases and anonymous
// releases each bump an object's version by 1 without ticking the clock
// (the anonymous release's word-level +9 is a +1 on the version field), so
// any object whose version merely leads the clock by one qualifies — so
// that the extended snapshot taken right after covers the observed version.
func (c *CommitClock) Raise(v uint64) {
	if v >= clockLimit {
		panic(fmt.Sprintf("objmodel: commit clock overflow (raise to %#x)", v))
	}
	for {
		cur := c.v.Load()
		if cur >= v || c.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Reset forces the clock to v. Test hook only: callers must guarantee no
// transaction is in flight, since snapshots taken against the old value
// become meaningless.
func (c *CommitClock) Reset(v uint64) { c.v.Store(v) }
