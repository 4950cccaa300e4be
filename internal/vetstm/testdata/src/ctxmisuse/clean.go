// Clean fixtures: handled errors and cancellable contexts.
package ctxmisuse

import (
	"context"
	"time"
)

func handled(ctx context.Context) error {
	if err := rt.AtomicCtx(ctx, body); err != nil {
		return err
	}
	return nil
}

func derived() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	return rt.AtomicCtx(ctx, body)
}

func explicitIgnore(ctx context.Context) {
	// An explicit blank assignment is a visible decision, not an accident.
	_ = rt.AtomicCtx(ctx, body)
}
