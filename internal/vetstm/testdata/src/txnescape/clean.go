// Clean fixtures: values computed through the transaction may flow
// anywhere; only the handle itself is confined.
package txnescape

import (
	"fmt"

	"repro/internal/stmapi"
)

var total uint64
var valCh = make(chan uint64, 1)

func cleanUses() {
	_ = rt.Atomic(func(tx stmapi.Txn) error {
		v := tx.Read(obj, 0)
		total = v      // a read value, not the handle
		valCh <- v + 1 // likewise (sideeffect's problem, not txnescape's)
		local := tx    // local alias stays inside the body
		local.Write(obj, 0, v+1)
		return nil
	})
	go func() { // goroutine outside any body, no handle in sight
		<-valCh
	}()
}

func cleanError() error {
	return rt.Atomic(func(tx stmapi.Txn) error {
		if tx.Read(obj, 0) == 0 {
			return fmt.Errorf("empty at id %d", tx.ID())
		}
		return nil
	})
}
