package txn

// TicketsTaken reports how many write-back tickets the kernel has issued.
// The adapters embed *Kernel, so tests outside the package reach it through
// an interface assertion on the stmapi.Runtime.
func (k *Kernel) TicketsTaken() uint64 { return k.order.tickets.Load() }

// Spilled reports whether lookups in b go through the index.
func (b *WriteBuf) Spilled() bool { return len(b.index) > 0 }
