// Clean fixtures: the canonical guard shape, and a loop that re-reads.
package retrymisuse

import (
	"repro/internal/stm"
	"repro/internal/stmapi"
)

func guard() {
	_ = rt.Atomic(func(tx stmapi.Txn) error {
		if tx.Read(obj, 0) == 0 {
			tx.Retry()
		}
		tx.Write(obj, 0, 0)
		return nil
	})
}

func loopWithRead(objs []*stm.Txn) {
	_ = rt.Atomic(func(tx stmapi.Txn) error {
		for slot := 0; slot < 4; slot++ {
			if tx.Read(obj, slot) == 0 {
				tx.Retry() // the loop re-reads: a change is observable
			}
		}
		return nil
	})
}
