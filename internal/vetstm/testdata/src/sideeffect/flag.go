// Flagged fixtures: effects that repeat on every re-execution of the
// atomic body.
package sideeffect

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/objmodel"
	"repro/internal/stm"
	"repro/internal/stmapi"
)

var rt *stm.Runtime
var obj *objmodel.Object
var ch = make(chan uint64, 1)

func work() {}

func flagged() {
	_ = rt.Atomic(func(tx stmapi.Txn) error {
		fmt.Println("attempt")                    // want `fmt.Println inside an atomic body`
		log.Printf("balance=%d", tx.Read(obj, 0)) // want `log.Printf inside an atomic body`
		time.Sleep(time.Millisecond)              // want `time.Sleep inside an atomic body`
		_ = rand.Intn(4)                          // want `rand.Intn inside an atomic body`
		_ = time.Now()                            // want `time.Now inside an atomic body`
		println("debug")                          // want `println inside an atomic body`
		ch <- tx.Read(obj, 0)                     // want `channel send inside an atomic body`
		_ = <-ch                                  // want `channel receive inside an atomic body`
		go work()                                 // want `goroutine launched inside an atomic body`
		return nil
	})
}
