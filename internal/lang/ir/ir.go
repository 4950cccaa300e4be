// Package ir defines the register-based intermediate representation our JIT
// compiles TJ into: per-method control-flow graphs of basic blocks whose
// memory-access instructions carry the barrier annotations the paper's
// optimizations manipulate (Sections 3, 5 and 6).
//
// Every GetField/SetField/GetStatic/SetStatic/GetElem/SetElem instruction
// has a Barrier annotation. The lowering pass marks every access as needing
// a non-transactional isolation barrier (strong atomicity inserts barriers
// everywhere); the optimization passes in package opt then remove or
// aggregate them, recording which analysis removed each barrier so the
// Figure 13 static counts can be reported.
package ir

import (
	"fmt"
	"strings"

	"repro/internal/lang/token"
	"repro/internal/lang/types"
)

// Op is an instruction opcode.
type Op uint8

// Opcodes.
const (
	Nop Op = iota

	// Data movement and constants.
	ConstInt // Dst <- Const
	Mov      // Dst <- A

	// Arithmetic and logic (ints in two's complement; booleans 0/1).
	Add // Dst <- A + B
	Sub
	Mul
	Div // traps on zero divisor
	Mod
	Neg // Dst <- -A
	Not // Dst <- !A
	Eq  // Dst <- A == B
	Ne
	Lt
	Le
	Gt
	Ge

	// Memory accesses (carry Barrier annotations).
	GetField  // Dst <- A.[Slot]
	SetField  // A.[Slot] <- B
	GetStatic // Dst <- statics(Class).[Slot]
	SetStatic // statics(Class).[Slot] <- B
	GetElem   // Dst <- A[B]
	SetElem   // A[B] <- C
	ArrayLen  // Dst <- len(A)

	// Allocation.
	NewObj   // Dst <- new Class
	NewArray // Dst <- new array of length A; ElemRef in Flag

	// Calls. Args lists argument registers (receiver first for instance
	// calls). CallVirtual dispatches through vtable slot VIndex on Args[0].
	CallStatic
	CallVirtual

	// Threads.
	Spawn // Dst <- spawn; Callee/VIndex + Args as for calls
	Join  // join thread in A

	// Builtins.
	Print // print A (Flag: true = bool formatting)
	Rand  // Dst <- uniform [0, A)
	Arg   // Dst <- driver argument A (0 if out of range)

	// Synchronization regions.
	MonitorEnter // enter monitor of A
	MonitorExit  // exit monitor of A
	AtomicBegin  // begin (possibly nested) transaction
	AtomicEnd    // end transaction
	Retry        // user-initiated retry of the enclosing transaction

	// Aggregated barriers (Section 6, Figure 14): acquire/release the
	// transaction record of A once for a run of accesses annotated
	// InAggregate. Executed only outside transactions.
	AcquireRec
	ReleaseRec

	// Control flow (block terminators).
	Jmp // to Targets[0]
	Br  // if A then Targets[0] else Targets[1]
	Ret // return A (or none if A < 0)
)

var opNames = [...]string{
	Nop: "nop", ConstInt: "const", Mov: "mov",
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Mod: "mod",
	Neg: "neg", Not: "not",
	Eq: "eq", Ne: "ne", Lt: "lt", Le: "le", Gt: "gt", Ge: "ge",
	GetField: "getfield", SetField: "setfield",
	GetStatic: "getstatic", SetStatic: "setstatic",
	GetElem: "getelem", SetElem: "setelem", ArrayLen: "arraylen",
	NewObj: "new", NewArray: "newarray",
	CallStatic: "call", CallVirtual: "callvirt",
	Spawn: "spawn", Join: "join", Print: "print", Rand: "rand", Arg: "arg",
	MonitorEnter: "monitorenter", MonitorExit: "monitorexit",
	AtomicBegin: "atomicbegin", AtomicEnd: "atomicend", Retry: "retry",
	AcquireRec: "acquirerec", ReleaseRec: "releaserec",
	Jmp: "jmp", Br: "br", Ret: "ret",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// IsMemAccess reports whether the op is a field/static/element access that
// carries a barrier annotation.
func (o Op) IsMemAccess() bool {
	switch o {
	case GetField, SetField, GetStatic, SetStatic, GetElem, SetElem:
		return true
	}
	return false
}

// IsLoad reports whether a memory access reads.
func (o Op) IsLoad() bool { return o == GetField || o == GetStatic || o == GetElem }

// IsStore reports whether a memory access writes.
func (o Op) IsStore() bool { return o == SetField || o == SetStatic || o == SetElem }

// RemovedBy identifies which optimization removed a barrier, as a bitmask
// (several analyses may independently remove the same barrier; Figure 13
// counts the overlaps).
type RemovedBy uint8

// Barrier-removal reasons.
const (
	ByImmutable   RemovedBy = 1 << iota // final field / array length (Section 6)
	ByLocalEscape                       // intraprocedural static escape analysis (Section 6)
	ByNAIT                              // whole-program not-accessed-in-transaction (Section 5)
	ByTL                                // whole-program thread-local analysis (Section 5.4)
	ByInitSelf                          // static-initializer self-access exemption (Section 5.3)
)

func (r RemovedBy) String() string {
	if r == 0 {
		return "-"
	}
	var parts []string
	for _, e := range []struct {
		bit  RemovedBy
		name string
	}{
		{ByImmutable, "immutable"}, {ByLocalEscape, "escape"},
		{ByNAIT, "nait"}, {ByTL, "tl"}, {ByInitSelf, "init"},
	} {
		if r&e.bit != 0 {
			parts = append(parts, e.name)
		}
	}
	return strings.Join(parts, "+")
}

// Barrier is the strong-atomicity annotation on a memory access.
type Barrier struct {
	// Need is set by lowering on every access: outside a transaction this
	// access requires an isolation barrier. Optimizations clear it and
	// record why in RemovedBy.
	Need bool

	// RemovedBy accumulates the analyses that independently justified
	// removing this barrier (the access may still Need one if only a
	// counting-only analysis ran).
	RemovedBy RemovedBy

	// InAggregate marks the access as covered by an enclosing
	// AcquireRec/ReleaseRec pair; the access itself executes without its
	// own barrier.
	InAggregate bool

	// TxnReadDirect marks an in-transaction load that may bypass the STM
	// open-for-read protocol entirely (no version logging, no validation)
	// because the whole-program analysis proved no transaction ever writes
	// any object it can reach — the Section 5.2 extension. Sound only
	// under WEAK atomicity (a non-transactional writer could still
	// conflict under strong atomicity, as the paper notes); the VM honors
	// it only when barriers are off.
	TxnReadDirect bool
}

// Active reports whether a standalone barrier executes for this access when
// reached outside a transaction.
func (b Barrier) Active() bool { return b.Need && !b.InAggregate }

// Instr is one IR instruction. Operand meaning depends on Op; unused
// operands are -1 (registers) or zero values.
type Instr struct {
	Op   Op
	Dst  int // destination register, -1 if none
	A, B int // operand registers
	C    int // third operand (SetElem value)

	Const int64        // ConstInt immediate
	Flag  bool         // NewArray: ref elements; Print: bool formatting
	Slot  int          // field slot for field/static accesses
	IsRef bool         // the accessed/stored slot holds a reference
	Final bool         // the accessed field is final (immutable after construction)
	Class *types.Class // NewObj class; statics holder class

	Callee *types.Method // CallStatic / Spawn (static) target
	VIndex int           // CallVirtual / Spawn (virtual) vtable index; -1 otherwise

	Args []int // call/spawn argument registers (receiver first)

	Targets [2]int // Jmp/Br successor block IDs

	Barrier Barrier
	Pos     token.Pos

	// Atomic marks instructions lexically inside an atomic block in the
	// source method (used by the whole-program analyses: such accesses are
	// transactional no matter the calling context).
	Atomic bool

	// AllocSite is a program-unique ID for NewObj/NewArray instructions,
	// assigned by lowering; the pointer analysis keys abstract objects by
	// (AllocSite, context).
	AllocSite int
}

// Block is a basic block.
type Block struct {
	ID     int
	Instrs []Instr
}

// Terminator returns the block's final instruction.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	return &b.Instrs[len(b.Instrs)-1]
}

// RegKind is the value category of a register.
type RegKind uint8

// Register kinds.
const (
	RInt    RegKind = iota // int or bool
	RRef                   // heap reference
	RThread                // thread handle
)

// Method is a compiled method body.
type Method struct {
	Sym    *types.Method // nil for static initializers
	Class  *types.Class
	Name   string // diagnostic name, e.g. "Main.main" or "C.<clinit>"
	Static bool
	IsInit bool // static initializer

	NumParams int // parameter registers: 0..NumParams-1 (receiver first)
	NumRegs   int
	RegKinds  []RegKind

	Blocks []*Block // Blocks[0] is the entry
}

// Program is a compiled TJ program.
type Program struct {
	Types   *types.Program
	Methods []*Method // all bodies, including static initializers
	BysSym  map[*types.Method]*Method
	Inits   []*Method // static initializers in execution order
	Main    *Method

	// NumAllocSites is the number of allocation-site IDs handed out.
	NumAllocSites int
}

// MethodOf returns the compiled body for a method symbol.
func (p *Program) MethodOf(sym *types.Method) *Method { return p.BysSym[sym] }

// String renders a method body for tests and the tjc -ir flag.
func (m *Method) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s (params=%d regs=%d)\n", m.Name, m.NumParams, m.NumRegs)
	for _, blk := range m.Blocks {
		fmt.Fprintf(&b, "b%d:\n", blk.ID)
		for i := range blk.Instrs {
			fmt.Fprintf(&b, "  %s\n", formatInstr(&blk.Instrs[i]))
		}
	}
	return b.String()
}

func formatInstr(in *Instr) string {
	var b strings.Builder
	if in.Atomic {
		b.WriteString("[txn] ")
	}
	if in.Dst >= 0 {
		fmt.Fprintf(&b, "r%d = ", in.Dst)
	}
	b.WriteString(in.Op.String())
	switch in.Op {
	case ConstInt:
		fmt.Fprintf(&b, " %d", in.Const)
	case GetField, SetField:
		fmt.Fprintf(&b, " r%d.[%d]", in.A, in.Slot)
		if in.Op == SetField {
			fmt.Fprintf(&b, " <- r%d", in.B)
		}
	case GetStatic, SetStatic:
		fmt.Fprintf(&b, " %s.[%d]", in.Class.Name, in.Slot)
		if in.Op == SetStatic {
			fmt.Fprintf(&b, " <- r%d", in.B)
		}
	case GetElem:
		fmt.Fprintf(&b, " r%d[r%d]", in.A, in.B)
	case SetElem:
		fmt.Fprintf(&b, " r%d[r%d] <- r%d", in.A, in.B, in.C)
	case NewObj:
		fmt.Fprintf(&b, " %s (site %d)", in.Class.Name, in.AllocSite)
	case NewArray:
		fmt.Fprintf(&b, " [r%d] ref=%v (site %d)", in.A, in.Flag, in.AllocSite)
	case CallStatic, Spawn:
		if in.Callee != nil {
			fmt.Fprintf(&b, " %s.%s", in.Callee.Owner.Name, in.Callee.Name)
		} else {
			fmt.Fprintf(&b, " vtable[%d]", in.VIndex)
		}
		fmt.Fprintf(&b, " %v", in.Args)
	case CallVirtual:
		fmt.Fprintf(&b, " vtable[%d] %v", in.VIndex, in.Args)
	case Jmp:
		fmt.Fprintf(&b, " b%d", in.Targets[0])
	case Br:
		fmt.Fprintf(&b, " r%d ? b%d : b%d", in.A, in.Targets[0], in.Targets[1])
	case Ret:
		if in.A >= 0 {
			fmt.Fprintf(&b, " r%d", in.A)
		}
	default:
		if in.A >= 0 {
			fmt.Fprintf(&b, " r%d", in.A)
		}
		if in.B >= 0 {
			fmt.Fprintf(&b, " r%d", in.B)
		}
	}
	if in.Op.IsMemAccess() {
		switch {
		case in.Barrier.InAggregate:
			b.WriteString("  ; barrier: aggregated")
		case in.Barrier.Need:
			b.WriteString("  ; barrier: yes")
		default:
			fmt.Fprintf(&b, "  ; barrier: removed(%s)", in.Barrier.RemovedBy)
		}
	}
	return b.String()
}
