package txn

// Spilled reports whether lookups in b go through the index.
func (b *WriteBuf) Spilled() bool { return len(b.index) > 0 }
