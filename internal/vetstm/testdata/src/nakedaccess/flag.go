// Flagged fixtures: the same object is opened transactionally in one
// function and accessed nakedly in another.
package nakedaccess

import (
	"repro/internal/mvstm"
	"repro/internal/objmodel"
	"repro/internal/stm"
	"repro/internal/stmapi"
)

var rt *stm.Runtime
var mv *mvstm.Runtime
var shared *objmodel.Object
var snapshotted *objmodel.Object // opened only by a multi-version snapshot read

func transactional() {
	_ = rt.Atomic(func(tx stmapi.Txn) error {
		tx.Write(shared, 0, tx.Read(shared, 0)+1)
		return nil
	})
}

func nakedRead() uint64 {
	return shared.LoadSlot(0) // want `naked LoadSlot on shared`
}

func nakedWrite() {
	shared.StoreSlot(0, 7) // want `naked StoreSlot on shared`
}

func rawSlots() uint64 {
	return shared.Slots[0].Load() // want `raw Slots access on shared`
}

func transactionalMV() {
	_ = mv.AtomicRead(func(tx stmapi.Txn) error {
		_ = tx.Read(snapshotted, 0)
		return nil
	})
}

func nakedWriteMV() {
	snapshotted.StoreSlot(0, 7) // want `naked StoreSlot on snapshotted`
}
