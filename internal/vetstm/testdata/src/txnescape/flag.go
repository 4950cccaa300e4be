// Flagged fixtures: every way a transaction handle can escape its body.
package txnescape

import (
	"repro/internal/mvstm"
	"repro/internal/objmodel"
	"repro/internal/stm"
	"repro/internal/stmapi"
)

var rt *stm.Runtime
var mv *mvstm.Runtime
var api stmapi.Runtime
var obj *objmodel.Object

var leaked *stm.Txn
var leakedAPI stmapi.Txn
var leakedMV *mvstm.Txn
var registry = map[string]*stm.Txn{}
var txnCh = make(chan *stm.Txn, 1)

func storeGlobal() {
	_ = rt.Atomic(func(tx stmapi.Txn) error {
		leaked = tx.(*stm.Txn) // want `stored to package-level leaked`
		return nil
	})
}

func storeGlobalMap() {
	_ = rt.Atomic(func(tx stmapi.Txn) error {
		registry["current"] = tx.(*stm.Txn) // want `stored to package-level registry`
		return nil
	})
}

func storeGlobalAPI() {
	_ = api.Atomic(func(tx stmapi.Txn) error {
		leakedAPI = tx // want `stored to package-level leakedAPI`
		return nil
	})
}

func storeGlobalMV() {
	_ = mv.Atomic(func(tx stmapi.Txn) error {
		leakedMV = tx.(*mvstm.Txn) // want `stored to package-level leakedMV`
		return nil
	})
}

func goroutineCaptureMVRead() {
	_ = mv.AtomicRead(func(tx stmapi.Txn) error {
		go func() { // want `captured by a goroutine`
			_ = tx.Read(obj, 0)
		}()
		return nil
	})
}

func sendOnChannel() {
	_ = rt.Atomic(func(tx stmapi.Txn) error {
		txnCh <- tx.(*stm.Txn) // want `sent on a channel`
		return nil
	})
}

func goroutineCapture() {
	_ = rt.Atomic(func(tx stmapi.Txn) error {
		go func() { // want `captured by a goroutine`
			_ = tx.Read(obj, 0)
		}()
		return nil
	})
}

func goroutineArg(f func(stmapi.Txn)) {
	_ = rt.Atomic(func(tx stmapi.Txn) error {
		go f(tx) // want `captured by a goroutine`
		return nil
	})
}

// returnHandle runs transactionally (it takes the handle) and leaks it to
// its caller, who may hold it past commit.
func returnHandle(tx *stm.Txn) *stm.Txn {
	return tx // want `returned from the body`
}
