// Contention policies: the Handler interface extended with an arbitration
// decision. The paper's conflict manager has exactly one behavior — "back
// off and let the barriers retry" (Section 3.2) — which starves long
// transactions under skew: a transaction that must hold a hot record for a
// while keeps losing the acquire race to a stream of short writers, and
// exponential backoff only widens the gap. Priority-based contention
// management (Chaudhary et al., "Achieving Starvation-Freedom in
// Multi-Version Transactional Memory Systems") bounds that: give the
// conflict manager the identities of both parties and let it pick a winner.
//
// A Policy decides one of three resolutions per conflict:
//
//	Wait       back off and retry the access (the classic behavior; the
//	           policy performs its own waiting before returning)
//	SelfAbort  the contender aborts itself and restarts from the top
//	AbortOther the contender dooms the record's owner: the runtime sets the
//	           owner's doom flag, the owner notices at its next access or
//	           commit validation, aborts (releasing its records), and
//	           restarts — the winner then acquires the record
//
// AbortOther is advisory, never forcible: the winner cannot roll back the
// victim's state itself (only the owning thread can safely replay an undo
// log), so the txrec word stays owned until the victim's own abort releases
// it. A victim that has already passed commit validation simply commits;
// dooming is then a no-op and the winner keeps waiting, which is exactly
// the race-free behavior the txrec state machine guarantees.
package conflict

import (
	"fmt"
)

// Decision is a Policy's resolution of one conflict.
type Decision uint8

// Decisions.
const (
	// Wait retries the access after the policy's own backoff.
	Wait Decision = iota
	// SelfAbort aborts the contending transaction; it restarts from the top.
	SelfAbort
	// AbortOther dooms the owning transaction so it aborts at its next
	// safe point, releasing the contended record.
	AbortOther
)

func (d Decision) String() string {
	switch d {
	case Wait:
		return "wait"
	case SelfAbort:
		return "self-abort"
	case AbortOther:
		return "abort-other"
	default:
		return fmt.Sprintf("Decision(%d)", uint8(d))
	}
}

// Policy is a Handler that can arbitrate conflicts instead of always
// waiting: what a transaction resolves its conflicts with
// (stmapi.CommonConfig.Handler). HandleConflict is its answer at call sites
// that never arbitrate.
//
// Resolve must perform its own waiting before returning Wait (exactly as
// HandleConflict does); for SelfAbort and AbortOther the runtime acts
// immediately, so the policy should not sleep first.
type Policy interface {
	Handler
	Resolve(Info) Decision
}

// Resolve makes Backoff a Policy that never arbitrates: back off, then
// retry, the paper's Section 3.2 behavior and its cost. The arbitrating
// policies embed it for the conflicts they cannot arbitrate.
func (*Backoff) Resolve(info Info) Decision {
	WaitAttempt(info.Attempt)
	return Wait
}

// arbitrable reports whether a conflict has two parties to arbitrate
// between: a transactional contender, and a live owner that may be doomed.
// Anonymous writers, non-transactional barriers and an owner already
// finishing leave nobody to arbitrate against; an irrevocable owner can
// never be doomed (the runtime would refuse, and an AbortOther against it
// would spin issuing dooms that never land). Either way the contender waits.
func arbitrable(info Info) bool {
	return info.Self != 0 && info.Owner != 0 && info.OwnerActive && !info.OwnerIrrevocable
}

// Timestamp is the greedy age-based policy: older transactions win. On a
// conflict with a live transactional owner, the older party (smaller ID —
// IDs are age stamps that survive retries, in begin order up to the block
// of IDs each descriptor takes; see Info) dooms the younger; a younger
// contender aborts itself instead of waiting. The oldest live transaction
// can therefore never lose an arbitration, and a retrying one is outranked
// only by the transactions older than it and at most 63 newcomers per other
// descriptor, so it becomes the oldest. That makes the policy
// starvation-free: whatever the oldest contends on, it either dooms the
// owner or is itself the owner.
//
// A conflict that is not arbitrable falls back to the embedded Backoff, as
// do the non-transactional barriers through HandleConflict.
type Timestamp struct{ Backoff }

// Resolve implements Policy: older wins.
func (t *Timestamp) Resolve(info Info) Decision {
	if !arbitrable(info) {
		return t.Backoff.Resolve(info)
	}
	if info.Self < info.Owner {
		return AbortOther
	}
	return SelfAbort
}

// Karma is the priority-accumulation policy: a transaction's priority is
// the work it has invested (reads + writes, accumulated across aborted
// attempts of the same atomic block, plus one unit per conflict endured),
// so repeatedly-victimized transactions grow strong enough to win. A
// contender waits while the owner outranks it, gaining rank with every
// conflict; once its priority plus the attempt count reaches the owner's
// priority, it dooms the owner. Ties break by age (older wins: the smaller
// ID, an age stamp up to the block it was taken in; see Info), so two
// equal-karma rivals cannot doom each other in the same round: IDs are
// unique, so exactly one of them is the older. A conflict that is not
// arbitrable falls back to the embedded Backoff.
type Karma struct{ Backoff }

// Resolve implements Policy.
func (k *Karma) Resolve(info Info) Decision {
	if !arbitrable(info) {
		return k.Backoff.Resolve(info)
	}
	rank := info.SelfPrio + int64(info.Attempt)
	if rank > info.OwnerPrio || rank == info.OwnerPrio && info.Self < info.Owner {
		return AbortOther
	}
	return k.Backoff.Resolve(info)
}

// PolicyNames lists the selectable contention policies, default first.
var PolicyNames = []string{"backoff", "timestamp", "karma"}

// ByName constructs a contention policy: "backoff" (the paper's
// Section 3.2 default), "timestamp" (greedy, older wins), or "karma"
// (priority accumulation). It is the single point tools (stmbench -policy,
// the litmus harness) resolve policy names through.
func ByName(name string) (Policy, error) {
	switch name {
	case "", "backoff":
		return &Backoff{}, nil
	case "timestamp":
		return &Timestamp{}, nil
	case "karma":
		return &Karma{}, nil
	default:
		return nil, fmt.Errorf("conflict: unknown policy %q (have %v)", name, PolicyNames)
	}
}
