package vm

import "fmt"

// Op is a VM opcode. The instruction set is register-based like Dalvik's:
// three register operands (A is usually the destination), an integer
// immediate, a float immediate, and up to two symbol operands.
type Op uint8

const (
	OpNop Op = iota

	// Constants and moves.
	OpConst    // A <- Imm
	OpConstF   // A <- F
	OpConstStr // A <- new String(Sym)
	OpMove     // A <- B (stack-to-stack)

	// Integer arithmetic and bitwise ops: A <- B op C (stack-to-stack).
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpNeg // A <- -B
	OpNot // A <- ^B

	// Float arithmetic: A <- B op C.
	OpAddF
	OpSubF
	OpMulF
	OpDivF
	OpNegF

	// Conversions.
	OpI2F // A <- float(B)
	OpF2I // A <- int(B)

	// Comparison: A <- -1/0/1.
	OpCmp
	OpCmpF

	// Branches: compare B with C (or zero) and jump to Imm.
	OpIfEq
	OpIfNe
	OpIfLt
	OpIfLe
	OpIfGt
	OpIfGe
	OpIfZ  // if B == 0 goto Imm (also: if B is null)
	OpIfNz // if B != 0 goto Imm
	OpGoto // goto Imm

	// Objects and arrays.
	OpNew     // A <- new Sym (class)
	OpNewArr  // A <- new array of length reg B
	OpArrLen  // A <- len(B)
	OpAGet    // A <- B[C] (heap-to-stack)
	OpAPut    // B[C] <- A (stack-to-heap)
	OpIGet    // A <- B.Sym (heap-to-stack)
	OpIPut    // B.Sym <- A (stack-to-heap)
	OpClone   // A <- shallow clone of B (heap-to-heap)
	OpArrCopy // copy min(len) elements from B into A (heap-to-heap)

	// Strings. Strings are immutable heap objects tainted at object
	// granularity.
	OpStrCat   // A <- concat(B, C) (heap-to-heap; unions taints: a derived cor)
	OpStrLen   // A <- len(B) (heap-to-stack)
	OpCharAt   // A <- B[C] (heap-to-stack)
	OpStrEq    // A <- B == C (heap-to-stack on both)
	OpIndexOf  // A <- index of first occurrence of C in B, or -1
	OpSubstr   // A <- B[C:Imm], Imm < 0 meaning "to end" (heap-to-heap)
	OpIntToStr // A <- decimal string of B (stack-to-heap)
	OpStrToInt // A <- integer parsed from B (heap-to-stack)
	OpHash     // A <- hex(sha256(B)) (heap-to-heap; derived value keeps taint)

	// Calls.
	OpInvoke  // A <- Sym2.Sym(Args...) static dispatch
	OpInvokeV // A <- (Args[0]).Sym(Args...) virtual dispatch on receiver class
	OpReturn  // return B
	OpRetVoid // return null

	// Synchronization (happens-before edges for the DSM, §2.4).
	OpMonEnter // lock object B
	OpMonExit  // unlock object B

	// Native bridge.
	OpNative // A <- native Sym(Args...)

	// Taint intrinsics (used by the framework and tests, not by apps).
	OpTaintSet // taint object B with tag bit Imm
	OpTaintGet // A <- tag bits of B as int

	OpHalt // stop the thread, result null

	numOps
)

// Fused superinstructions live in a high opcode range disjoint from the
// architectural set. They exist only in a method's quickened fast-path copy
// (Method.fastCode, built by quicken.go for analysis-proven taint-free
// code): never in Method.Code, never hashed, serialized, assembled, or
// verified. Each fuses two adjacent architectural instructions into one
// dispatch; the original instructions stay in place at their pcs, so a
// branch into the middle of a pair — or the tracked loop resuming there —
// executes the unfused form. All fused ops count as two instructions.
const (
	// fConstArith fuses `const rA, Imm` + an integer/compare op
	// (Op(Imm2)) writing r(B) from r(C) op r(Imm3).
	fConstArith Op = 200 + iota
	// fConstFArith fuses `constf rA, F` + a float op (Op(Imm2)) writing
	// r(B) from r(C) op r(Imm3).
	fConstFArith
	// fArithGoto fuses an integer/compare op (Op(Imm2)) writing rA from
	// rB op rC, + `goto Imm` — the back edge of every counted loop.
	fArithGoto
	// fConstAPut fuses `const rA, Imm2` + `aput rA, rB, rC`.
	fConstAPut
	// fAGetBranch fuses `aget rA, rB, rC` + `ifnz/ifz rA, Imm`
	// (Imm2 = 1 for ifnz, 0 for ifz).
	fAGetBranch
	// fConstAdd, fConstSub and fConstMul are fConstArith with the common
	// second ops given their own opcodes, so the fast loop dispatches once.
	fConstAdd
	fConstSub
	fConstMul
)

var fusedNames = map[Op]string{
	fConstArith: "const+arith", fConstFArith: "constf+arithf",
	fArithGoto: "arith+goto", fConstAPut: "const+aput",
	fAGetBranch: "aget+branch",
	fConstAdd:   "const+add", fConstSub: "const+sub", fConstMul: "const+mul",
}

var opNames = [...]string{
	OpNop: "nop", OpConst: "const", OpConstF: "constf", OpConstStr: "conststr",
	OpMove: "move",
	OpAdd:  "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpNeg: "neg", OpNot: "not",
	OpAddF: "addf", OpSubF: "subf", OpMulF: "mulf", OpDivF: "divf", OpNegF: "negf",
	OpI2F: "i2f", OpF2I: "f2i", OpCmp: "cmp", OpCmpF: "cmpf",
	OpIfEq: "ifeq", OpIfNe: "ifne", OpIfLt: "iflt", OpIfLe: "ifle",
	OpIfGt: "ifgt", OpIfGe: "ifge", OpIfZ: "ifz", OpIfNz: "ifnz", OpGoto: "goto",
	OpNew: "new", OpNewArr: "newarr", OpArrLen: "arrlen",
	OpAGet: "aget", OpAPut: "aput", OpIGet: "iget", OpIPut: "iput",
	OpClone: "clone", OpArrCopy: "arrcopy",
	OpStrCat: "strcat", OpStrLen: "strlen", OpCharAt: "charat", OpStrEq: "streq",
	OpIndexOf: "indexof", OpSubstr: "substr", OpIntToStr: "intostr", OpStrToInt: "strtoint",
	OpHash:   "hash",
	OpInvoke: "invoke", OpInvokeV: "invokev", OpReturn: "return", OpRetVoid: "retvoid",
	OpMonEnter: "monenter", OpMonExit: "monexit",
	OpNative:   "native",
	OpTaintSet: "taintset", OpTaintGet: "taintget",
	OpHalt: "halt",
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	if n, ok := fusedNames[o]; ok {
		return n
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// OpByName resolves a mnemonic; the assembler uses it.
func OpByName(name string) (Op, bool) {
	op, ok := opsByName[name]
	return op, ok
}

var opsByName = func() map[string]Op {
	m := make(map[string]Op, int(numOps))
	for i := Op(0); i < numOps; i++ {
		if opNames[i] != "" {
			m[opNames[i]] = i
		}
	}
	return m
}()

// Instr is a decoded instruction.
type Instr struct {
	Op   Op
	A    int     // destination register (or operand, per op)
	B    int     // source register
	C    int     // source register
	Imm  int64   // integer immediate / branch target
	F    float64 // float immediate
	Sym  string  // field / method / native / string-literal symbol
	Sym2 string  // class symbol for invoke
	Args []int   // argument registers for invoke/native

	// Imm2 and Imm3 carry the extra operands of fused superinstructions
	// (the second op's opcode, a register index, or an immediate — see the
	// fused-op constants). Architectural instructions leave them zero.
	Imm2 int64
	Imm3 int64

	// Resolved operands: link-time pre-resolution (Program.Link) plus
	// per-site monomorphic inline caches filled in by the interpreter.
	// Derived state only — never serialized, hashed, or disassembled; the
	// symbolic operands above stay authoritative, and every consumer falls
	// back to them on a cache miss. A VM created with Config.SlowPath
	// ignores these fields entirely (the reference interpreter the
	// differential-equivalence tests compare against).
	//
	// Keying: icClass/icSlot and icClass/icMethod cache per-receiver-class
	// resolution (iget/iput/invokev) and are valid program-wide; icMethod
	// alone is the statically linked invoke target; icVM keys the per-VM
	// caches (icNative, icStr), since natives are registered per VM and
	// interned strings live in a VM's heap. Linked code with warm caches is
	// written to during execution, so a Program must not be executed from
	// multiple goroutines concurrently (the repo never does: each endpoint
	// assembles its own Program and serializes per-app execution).
	icClass  *Class     // receiver class key (iget/iput/invokev); target class (new)
	icSlot   int        // field slot under icClass (iget/iput)
	icMethod *Method    // invokev target under icClass; static invoke target
	icNative *NativeDef // native target, valid while icVM matches
	icStr    *Object    // interned conststr object, valid while icVM matches
	icVM     *VM        // owner of icNative/icStr
}

// String renders the instruction in assembler syntax.
func (in Instr) String() string {
	switch in.Op {
	case OpNop, OpRetVoid, OpHalt:
		return in.Op.String()
	case OpConst:
		return fmt.Sprintf("const r%d, %d", in.A, in.Imm)
	case OpConstF:
		return fmt.Sprintf("constf r%d, %g", in.A, in.F)
	case OpConstStr:
		return fmt.Sprintf("conststr r%d, %q", in.A, in.Sym)
	case OpMove, OpNeg, OpNot, OpNegF, OpI2F, OpF2I, OpArrLen, OpStrLen,
		OpClone, OpIntToStr, OpStrToInt, OpHash, OpNewArr:
		return fmt.Sprintf("%s r%d, r%d", in.Op, in.A, in.B)
	case OpIfZ, OpIfNz:
		return fmt.Sprintf("%s r%d, @%d", in.Op, in.B, in.Imm)
	case OpGoto:
		return fmt.Sprintf("goto @%d", in.Imm)
	case OpIfEq, OpIfNe, OpIfLt, OpIfLe, OpIfGt, OpIfGe:
		return fmt.Sprintf("%s r%d, r%d, @%d", in.Op, in.B, in.C, in.Imm)
	case OpNew:
		return fmt.Sprintf("new r%d, %s", in.A, in.Sym)
	case OpIGet:
		return fmt.Sprintf("iget r%d, r%d.%s", in.A, in.B, in.Sym)
	case OpIPut:
		return fmt.Sprintf("iput r%d.%s, r%d", in.B, in.Sym, in.A)
	case OpInvoke, OpInvokeV:
		return fmt.Sprintf("%s r%d, %s.%s, %v", in.Op, in.A, in.Sym2, in.Sym, in.Args)
	case OpNative:
		return fmt.Sprintf("native r%d, %s, %v", in.A, in.Sym, in.Args)
	case OpReturn:
		return fmt.Sprintf("return r%d", in.B)
	case OpMonEnter, OpMonExit:
		return fmt.Sprintf("%s r%d", in.Op, in.B)
	case OpTaintSet:
		return fmt.Sprintf("taintset r%d, %d", in.B, in.Imm)
	case OpSubstr:
		return fmt.Sprintf("substr r%d, r%d, r%d, %d", in.A, in.B, in.C, in.Imm)
	default:
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.A, in.B, in.C)
	}
}
