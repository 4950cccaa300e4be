// Flagged fixtures: discarded AtomicCtx errors and never-cancelled
// contexts.
package ctxmisuse

import (
	"context"

	"repro/internal/stm"
	"repro/internal/stmapi"
)

var rt *stm.Runtime
var api stmapi.Runtime

func body(tx stmapi.Txn) error { return nil }

func discarded(ctx context.Context) {
	rt.AtomicCtx(ctx, body) // want `AtomicCtx result discarded`
}

func background() error {
	return rt.AtomicCtx(context.Background(), body) // want `AtomicCtx with context.Background\(\)`
}

func todoAndDiscarded() {
	api.AtomicCtx(context.TODO(), func(tx stmapi.Txn) error { return nil }) // want `AtomicCtx result discarded` `AtomicCtx with context.TODO\(\)`
}
