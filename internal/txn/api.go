package txn

import (
	"context"

	"repro/internal/objmodel"
	"repro/internal/stmapi"
)

// API is the runtime-agnostic driver view of a kernel-based runtime: it
// implements stmapi.Runtime and stmapi.DurableRuntime (SetTracer,
// SetInjector, ReapDead, SetCommitSink and ActiveTransactions are promoted
// from the embedded Kernel). It is a value wrapper: each entry point
// re-wraps the body in a closure that does not escape, so driving a runtime
// through stmapi keeps the zero-allocation steady state of calling it
// directly. A runtime with further capabilities embeds API in its own
// adapter type.
type API struct{ *Kernel }

// Heap returns the managed heap the runtime is bound to.
func (a API) Heap() *objmodel.Heap { return a.Kernel.Heap }

// Stats snapshots the runtime's counters.
func (a API) Stats() stmapi.StatsSnapshot { return a.Kernel.Stats.Snapshot() }

func (a API) Atomic(body func(stmapi.Txn) error) error {
	return a.AtomicCtx(nil, body)
}

func (a API) AtomicCtx(ctx context.Context, body func(stmapi.Txn) error) error {
	return a.Kernel.Atomic(ctx, a.EscalateFrom(), func(tx *Txn) error { return body(tx.api) })
}

func (a API) AtomicIrrevocable(body func(stmapi.Txn) error) error {
	return a.Kernel.Atomic(nil, 0, func(tx *Txn) error { return body(tx.api) })
}

// Register registers a kernel-based runtime with stmapi under name: the
// factory normalizes the configuration (an invalid one is an error here, not
// New's panic) and adapts whatever mk constructs.
func Register(name string, mk func(*objmodel.Heap, stmapi.CommonConfig) stmapi.Runtime) {
	stmapi.Register(name, func(heap *objmodel.Heap, cfg stmapi.CommonConfig) (stmapi.Runtime, error) {
		if err := cfg.Normalize(); err != nil {
			return nil, err
		}
		return mk(heap, cfg), nil
	})
}
