package objmodel

import "sync/atomic"

// MVVersion is one superseded version in an object's multi-version chain.
// The newest committed version of an object is the object itself: its slots,
// at the version its Shared transaction record carries. The chain holds what
// the slots used to be: a committer that is about to overwrite them pushes
// their image, stamped with the record version it acquired at, and
// Object.MVHead points at the most recent such pre-image, each node's prev
// at the next older one. The image of node n was the object's committed
// state from n.TS until the TS of the node above it (for the head: until the
// record's current version), so a snapshot at rv older than the record reads
// the newest node with TS <= rv.
//
// Only the holder of the object's record writes a node. A node under the
// head is never written again except for its prev pointer, which the holder
// stores nil in to sever the chain below the reclamation watermark. The head
// can be: a committer that finds the whole chain dead (at or under the
// watermark) stores its pre-image and timestamp into the head instead of
// allocating a node to replace it, so TS and Vals are atomics, as an object's
// slots are. It stores only the slots whose value differs from the head's, so
// a rewrite costs what the commits since the last one changed, not what the
// object holds. No snapshot that can still be live reads the image meanwhile,
// and a concurrent load of TS decides the same way on the old value and the
// new (internal/mvstm/gc.go has the argument). Readers that raced past a cut
// still hold the detached tail through their local pointer, and Go's GC keeps
// it alive until they finish; reclamation here means "unreachable from the
// object", not "freed now".
type MVVersion struct {
	// TS is the version at which this image became the object's committed
	// state. Timestamps strictly decrease along the chain, and the head's is
	// below the version in the object's transaction record. A node's TS only
	// rises.
	TS atomic.Uint64

	// Vals is the full slot image of the object at TS. Whole-object images
	// keep a chain read to a single walk regardless of which slots the
	// superseding writer touched.
	Vals []atomic.Uint64

	prev atomic.Pointer[MVVersion]

	// small backs Vals for objects of up to len(small) slots, so a node and
	// its image are one allocation.
	small [4]atomic.Uint64
}

// NewMVVersion returns an unlinked node with a zeroed timestamp and a zeroed
// image of n slots, for the caller to fill before publishing the node.
func NewMVVersion(n int) *MVVersion {
	v := &MVVersion{}
	if n <= len(v.small) {
		v.Vals = v.small[:n]
	} else {
		v.Vals = make([]atomic.Uint64, n)
	}
	return v
}

// Prev returns the next older version, or nil at the end of the chain.
func (v *MVVersion) Prev() *MVVersion { return v.prev.Load() }

// SetPrev links (or, with nil, severs) the chain below v.
func (v *MVVersion) SetPrev(p *MVVersion) { v.prev.Store(p) }
