package txn

// Spilled reports whether lookups in b go through the index.
func (b *WriteBuf) Spilled() bool { return len(b.index) > 0 }

// Unflushed returns the sum of the statistics counts tx holds in its own
// fields, which no flush has moved into a batch yet.
func (tx *Txn) Unflushed() int64 {
	return tx.nStarts + tx.NReads + tx.NWrites + tx.NSnapReads + tx.NInstalled + tx.NReclaimed + tx.NReadOnly + tx.NReadOnlyAborts
}
