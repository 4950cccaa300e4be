package vm

import (
	"fmt"
	"io"

	"repro/internal/lang/ir"
	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/strong"
)

// thread is one logical TJ thread, executed by one goroutine.
type thread struct {
	vm *VM
	id int64

	txnDepth int
	tx       stmapi.Txn  // the enclosing STM transaction; nil outside one and in lock mode
	reval    revalidator // tx again, if its runtime can re-validate mid-body

	inAgg  bool
	aggObj *objmodel.Object
	aggTok strong.AggToken

	rng      uint64
	tick     int
	executed int64 // local instruction count, flushed to vm.Executed

	// monitors tracks Enter/Exit nesting so a dying thread can release
	// everything it holds instead of deadlocking its peers.
	monitors []*objmodel.Monitor
}

type frame struct {
	m     *ir.Method
	regs  []uint64
	block *ir.Block
	pc    int
}

// execResult distinguishes how a frame's interpretation loop ended.
type execResult uint8

const (
	resReturn  execResult = iota // Ret executed (or fell off the end)
	resTxnExit                   // the owning atomic region ended (inner loop only)
)

// invoke runs a method to completion and returns its result value.
func (t *thread) invoke(m *ir.Method, args []uint64) uint64 {
	fr := &frame{m: m, regs: make([]uint64, m.NumRegs), block: m.Blocks[0]}
	copy(fr.regs, args)
	_, ret := t.exec(fr, false)
	return ret
}

// revalidator is what a kernel-based runtime's descriptor offers beyond
// stmapi.Txn (txn.Txn.ValidateOrRestart).
type revalidator interface{ ValidateOrRestart() }

// validateTick periodically re-validates an active transaction so a doomed
// transaction aborts promptly instead of looping on inconsistent data (the
// managed-runtime analogue of the quiescence safety discussion in Section
// 3.4).
func (t *thread) validateTick() {
	t.tick++
	if t.tick&255 == 0 && t.reval != nil {
		t.reval.ValidateOrRestart()
	}
}

// exec interprets fr until the method returns — or, when stopAtTxnExit is
// set, until the transaction region that the caller owns ends (AtomicEnd
// dropping the depth to zero).
func (t *thread) exec(fr *frame, stopAtTxnExit bool) (execResult, uint64) {
	vm := t.vm
	for {
		if fr.pc >= len(fr.block.Instrs) {
			// Fell off a block without terminator: method end (void).
			return resReturn, 0
		}
		in := &fr.block.Instrs[fr.pc]
		fr.pc++
		t.executed++
		if t.txnDepth > 0 {
			t.validateTick()
		}
		r := fr.regs
		switch in.Op {
		case ir.Nop:
		case ir.ConstInt:
			r[in.Dst] = uint64(in.Const)
		case ir.Mov:
			r[in.Dst] = r[in.A]
		case ir.Add:
			r[in.Dst] = uint64(int64(r[in.A]) + int64(r[in.B]))
		case ir.Sub:
			r[in.Dst] = uint64(int64(r[in.A]) - int64(r[in.B]))
		case ir.Mul:
			r[in.Dst] = uint64(int64(r[in.A]) * int64(r[in.B]))
		case ir.Div:
			if r[in.B] == 0 {
				throw("division by zero")
			}
			r[in.Dst] = uint64(int64(r[in.A]) / int64(r[in.B]))
		case ir.Mod:
			if r[in.B] == 0 {
				throw("division by zero")
			}
			r[in.Dst] = uint64(int64(r[in.A]) % int64(r[in.B]))
		case ir.Neg:
			r[in.Dst] = uint64(-int64(r[in.A]))
		case ir.Not:
			r[in.Dst] = r[in.A] ^ 1
		case ir.Eq:
			r[in.Dst] = b2u(r[in.A] == r[in.B])
		case ir.Ne:
			r[in.Dst] = b2u(r[in.A] != r[in.B])
		case ir.Lt:
			r[in.Dst] = b2u(int64(r[in.A]) < int64(r[in.B]))
		case ir.Le:
			r[in.Dst] = b2u(int64(r[in.A]) <= int64(r[in.B]))
		case ir.Gt:
			r[in.Dst] = b2u(int64(r[in.A]) > int64(r[in.B]))
		case ir.Ge:
			r[in.Dst] = b2u(int64(r[in.A]) >= int64(r[in.B]))

		case ir.GetField:
			o := t.object(r[in.A])
			r[in.Dst] = t.load(o, in.Slot, in.Barrier)
		case ir.SetField:
			o := t.object(r[in.A])
			t.store(o, in.Slot, r[in.B], in.IsRef, in.Barrier)
		case ir.GetStatic:
			r[in.Dst] = t.load(vm.statics[in.Class.ID], in.Slot, in.Barrier)
		case ir.SetStatic:
			t.store(vm.statics[in.Class.ID], in.Slot, r[in.B], in.IsRef, in.Barrier)
		case ir.GetElem:
			o := t.object(r[in.A])
			idx := int(int64(r[in.B]))
			if idx < 0 || idx >= o.Len {
				throw("index out of range: %d (length %d)", idx, o.Len)
			}
			r[in.Dst] = t.load(o, idx, in.Barrier)
		case ir.SetElem:
			o := t.object(r[in.A])
			idx := int(int64(r[in.B]))
			if idx < 0 || idx >= o.Len {
				throw("index out of range: %d (length %d)", idx, o.Len)
			}
			t.store(o, idx, r[in.C], in.IsRef, in.Barrier)
		case ir.ArrayLen:
			r[in.Dst] = uint64(t.object(r[in.A]).Len)

		case ir.NewObj:
			o := vm.Heap.New(vm.classes[in.Class.ID])
			r[in.Dst] = uint64(o.Ref())
		case ir.NewArray:
			n := int(int64(r[in.A]))
			if n < 0 {
				throw("negative array length %d", n)
			}
			o := vm.Heap.NewArray(n, in.Flag)
			r[in.Dst] = uint64(o.Ref())

		case ir.CallStatic:
			ret := t.callMethod(vm.Prog.MethodOf(in.Callee), in.Args, r)
			if in.Dst >= 0 {
				r[in.Dst] = ret
			}
		case ir.CallVirtual:
			recvObj := t.object(r[in.Args[0]])
			tc := vm.typeByRT[recvObj.Class]
			callee := tc.VTable[in.VIndex]
			ret := t.callMethod(vm.Prog.MethodOf(callee), in.Args, r)
			if in.Dst >= 0 {
				r[in.Dst] = ret
			}

		case ir.Spawn:
			r[in.Dst] = t.spawn(in, r)
		case ir.Join:
			h := vm.handle(int64(r[in.A]))
			<-h.done

		case ir.Print:
			t.print(r[in.A], in.Flag)
		case ir.Arg:
			idx := int(int64(r[in.A]))
			if idx >= 0 && idx < len(vm.Mode.Args) {
				r[in.Dst] = uint64(vm.Mode.Args[idx])
			} else {
				r[in.Dst] = 0
			}
		case ir.Rand:
			n := int64(r[in.A])
			if n <= 0 {
				throw("rand bound must be positive, got %d", n)
			}
			r[in.Dst] = uint64(t.nextRand(uint64(n)))

		case ir.MonitorEnter:
			mon := t.object(r[in.A]).Monitor()
			mon.Enter(t.id)
			t.monitors = append(t.monitors, mon)
		case ir.MonitorExit:
			t.object(r[in.A]).Monitor().Exit(t.id)
			t.monitors = t.monitors[:len(t.monitors)-1]

		case ir.AtomicBegin:
			if t.txnDepth > 0 {
				// Closed nesting, flattened: TJ has no partial-abort
				// construct, so flattening is semantically equivalent.
				t.txnDepth++
				continue
			}
			if vm.Mode.Sync == SyncLock {
				vm.globalLock.Lock()
				t.txnDepth = 1
				continue
			}
			t.runAtomicRegion(fr)
			// fr is now positioned just after the matching AtomicEnd.
		case ir.AtomicEnd:
			t.txnDepth--
			if t.txnDepth == 0 {
				if vm.Mode.Sync == SyncLock {
					vm.globalLock.Unlock()
					continue
				}
				// STM region end: hand control back to runAtomicRegion so
				// the transaction commits.
				return resTxnExit, 0
			}
		case ir.Retry:
			if t.tx == nil {
				throw("retry outside a transaction (lock mode cannot retry)")
			}
			t.tx.Retry()

		case ir.AcquireRec:
			if t.txnDepth == 0 && vm.Mode.Strong && vm.Mode.Barriers != BarrierReadsOnly {
				o := t.object(r[in.A])
				t.aggObj = o
				t.aggTok = vm.Bar.Acquire(o)
				t.inAgg = true
			}
		case ir.ReleaseRec:
			if t.inAgg {
				vm.Bar.Release(t.aggObj, t.aggTok)
				t.inAgg = false
				t.aggObj = nil
			}

		case ir.Jmp:
			fr.block = fr.m.Blocks[in.Targets[0]]
			fr.pc = 0
		case ir.Br:
			if r[in.A] != 0 {
				fr.block = fr.m.Blocks[in.Targets[0]]
			} else {
				fr.block = fr.m.Blocks[in.Targets[1]]
			}
			fr.pc = 0
		case ir.Ret:
			var ret uint64
			if in.A >= 0 {
				ret = r[in.A]
			}
			return resReturn, ret
		default:
			throw("vm: unknown opcode %v", in.Op)
		}
	}
}

// runAtomicRegion executes the atomic region beginning at fr's current
// position (just past AtomicBegin) as a transaction, re-executing on
// abort. On return, fr is positioned just past the matching AtomicEnd and
// all effects are committed.
func (t *thread) runAtomicRegion(fr *frame) {
	snapshot := make([]uint64, len(fr.regs))
	copy(snapshot, fr.regs)
	// The body goes to the runtime through an interface, so whatever it
	// captures lives on the heap. It therefore runs on a copy of the frame
	// (sharing the registers): capturing fr itself would move every call's
	// frame to the heap, atomic or not.
	start := *fr
	var end frame
	err := t.vm.RT.Atomic(func(tx stmapi.Txn) error {
		t.tx = tx
		t.reval, _ = tx.(revalidator)
		defer func() { t.tx, t.reval = nil, nil }()
		end = start // each attempt runs from the region's first instruction
		copy(end.regs, snapshot)
		t.txnDepth = 1
		if res, _ := t.exec(&end, true); res != resTxnExit {
			throw("vm: atomic region ended without AtomicEnd")
		}
		return nil
	})
	if err != nil {
		// TJ bodies cannot return errors; any error is a runtime failure.
		panic(err)
	}
	fr.block, fr.pc = end.block, end.pc
}

func (t *thread) callMethod(m *ir.Method, argRegs []int, callerRegs []uint64) uint64 {
	args := make([]uint64, len(argRegs))
	for i, a := range argRegs {
		args[i] = callerRegs[a]
	}
	return t.invoke(m, args)
}

func (t *thread) spawn(in *ir.Instr, r []uint64) uint64 {
	vm := t.vm
	if t.txnDepth > 0 {
		throw("spawn inside atomic block")
	}
	var m *ir.Method
	if in.Callee != nil && in.VIndex < 0 {
		m = vm.Prog.MethodOf(in.Callee)
	} else {
		recvObj := t.object(r[in.Args[0]])
		m = vm.Prog.MethodOf(vm.typeByRT[recvObj.Class].VTable[in.VIndex])
	}
	args := make([]uint64, len(in.Args))
	for i, a := range in.Args {
		args[i] = r[a]
	}
	// "Thread objects become public prior to the thread being spawned":
	// everything handed to the new thread escapes.
	if vm.Mode.DEA {
		kinds := m.RegKinds
		for i := range args {
			if i < len(kinds) && kinds[i] == ir.RRef {
				vm.Heap.PublishRef(objmodel.Ref(args[i]))
			}
		}
	}
	tid := vm.nextTid.Add(1)
	h := &threadHandle{done: make(chan struct{})}
	vm.threads.Store(tid, h)
	vm.wg.Add(1)
	go func() {
		defer vm.wg.Done()
		defer close(h.done)
		t2 := &thread{vm: vm, id: tid}
		t2.rng = uint64(vm.Mode.Seed+tid)*2862933555777941757 + 3037000493
		if err := t2.protect(func() { t2.invoke(m, args) }); err != nil {
			vm.recordErr(err)
		}
		vm.Executed.Add(t2.executed)
	}()
	return uint64(tid)
}

func (v *VM) handle(tid int64) *threadHandle {
	h, ok := v.threads.Load(tid)
	if !ok {
		throw("join of unknown thread %d", tid)
	}
	return h.(*threadHandle)
}

// object resolves a register value holding a reference.
func (t *thread) object(v uint64) *objmodel.Object {
	if v == 0 {
		throw("null dereference")
	}
	return t.vm.Heap.Get(objmodel.Ref(v))
}

// load performs a read access under the thread's current context.
func (t *thread) load(o *objmodel.Object, slot int, b ir.Barrier) uint64 {
	vm := t.vm
	if t.txnDepth > 0 && vm.Mode.Sync == SyncSTM {
		if b.TxnReadDirect && !vm.Mode.Strong {
			// Section 5.2 extension: this load's points-to set is never
			// written in any transaction, so under weak atomicity it can
			// bypass open-for-read (no logging, no validation).
			return o.LoadSlot(slot)
		}
		return t.tx.Read(o, slot)
	}
	if vm.Mode.Strong && vm.Mode.Barriers != BarrierWritesOnly &&
		b.Active() && !t.inAgg {
		return vm.sys.Read(o, slot)
	}
	return o.LoadSlot(slot)
}

// store performs a write access under the thread's current context.
func (t *thread) store(o *objmodel.Object, slot int, val uint64, isRef bool, b ir.Barrier) {
	vm := t.vm
	if t.txnDepth > 0 && vm.Mode.Sync == SyncSTM {
		t.tx.Write(o, slot, val)
		return
	}
	if vm.Mode.Strong && vm.Mode.Barriers != BarrierReadsOnly {
		if t.inAgg && o == t.aggObj {
			vm.Bar.AggWrite(o, slot, val, t.aggTok)
			return
		}
		if b.Active() {
			vm.Bar.Write(o, slot, val)
			return
		}
		// Barrier removed by an optimization. With dynamic escape analysis
		// the publication obligation of Figure 10b remains: writing a
		// private object's reference into a public container must publish
		// it even when the isolation barrier itself was elided.
		if vm.Mode.DEA && isRef && val != 0 && !o.IsPrivate() {
			vm.Heap.PublishRef(objmodel.Ref(val))
		}
	}
	o.StoreSlot(slot, val)
}

func (t *thread) print(v uint64, asBool bool) {
	vm := t.vm
	vm.Prints.Add(1)
	if vm.out == nil {
		return
	}
	vm.outMu.Lock()
	defer vm.outMu.Unlock()
	if asBool {
		if v != 0 {
			io.WriteString(vm.out, "true\n")
		} else {
			io.WriteString(vm.out, "false\n")
		}
		return
	}
	fmt.Fprintf(vm.out, "%d\n", int64(v))
}

// nextRand is a SplitMix64-style deterministic per-thread generator.
func (t *thread) nextRand(n uint64) uint64 {
	t.rng += 0x9e3779b97f4a7c15
	z := t.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return z % n
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
