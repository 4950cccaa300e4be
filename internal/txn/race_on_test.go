//go:build race

package txn_test

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation adds allocations that invalidate exact alloc-count
// assertions.
const raceEnabled = true
