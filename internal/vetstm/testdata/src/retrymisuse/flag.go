// Flagged fixtures: retries that can never be woken or that sit in dead
// loops.
package retrymisuse

import (
	"repro/internal/objmodel"
	"repro/internal/stm"
	"repro/internal/stmapi"
)

var rt *stm.Runtime
var api stmapi.Runtime
var obj *objmodel.Object

func emptyReadSet() {
	_ = rt.Atomic(func(tx stmapi.Txn) error {
		tx.Retry() // want `Retry with an empty read set`
		return nil
	})
}

func emptyReadSetAPI() {
	_ = api.Atomic(func(tx stmapi.Txn) error {
		tx.Write(obj, 0, 1) // writes do not populate the read set
		tx.Retry()          // want `Retry with an empty read set`
		return nil
	})
}

func deadLoop() {
	_ = rt.Atomic(func(tx stmapi.Txn) error {
		v := tx.Read(obj, 0)
		for v == 0 {
			tx.Retry() // want `Retry inside a loop with no transactional read`
		}
		return nil
	})
}
