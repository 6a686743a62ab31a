package vm

// quicken builds the fast-path instruction stream for a fast-eligible
// method: a copy of its linked code (so the fused stream inherits the
// link-time resolved operands and owns its own inline-cache slots) with
// the hottest adjacent pairs rewritten into fused superinstructions.
//
// A fused op replaces the FIRST instruction of its pair; the second stays
// in place at its own pc. That keeps the pc↔instruction mapping of the
// original code: a branch into the middle of a pair, a migrate stop, or a
// tracked-loop resume all land on a real (unfused) instruction. The fused
// execution writes every intermediate register effect of its constituents,
// so running the pair as one dispatch or as two singles is
// state-identical; each fused op counts as two executed instructions, and
// the fast loop single-steps the originals when the remaining instruction
// budget cannot fit a whole pair (StopLimit exactness).
//
// Only patterns with no additional failure modes are fused: a const+div
// pair with a zero immediate divisor stays unfused, so every fused arith
// either cannot fault or faults at the same sub-pc as the unfused pair.
func quicken(m *Method) []Instr {
	code := append([]Instr(nil), m.Code...)
	n := len(code)
	used := make([]bool, n) // instruction already consumed by a fusion

	for pc := 0; pc+1 < n; pc++ {
		if used[pc] || used[pc+1] {
			continue
		}
		a, b := &code[pc], &code[pc+1]
		switch {
		// const rK, Imm ; intop rD, rX, rY   →  fConstAdd/Sub/Mul, or
		// fConstArith for the other ops
		case a.Op == OpConst && isIntArith(b.Op):
			if (b.Op == OpDiv || b.Op == OpRem) && divisorMayBeZero(a, b) {
				continue
			}
			op := fConstArith
			switch b.Op {
			case OpAdd:
				op = fConstAdd
			case OpSub:
				op = fConstSub
			case OpMul:
				op = fConstMul
			}
			code[pc] = Instr{
				Op: op, A: a.A, Imm: a.Imm,
				B: b.A, C: b.B, Imm3: int64(b.C), Imm2: int64(b.Op),
			}
			used[pc], used[pc+1] = true, true

		// constf rK, F ; floatop rD, rX, rY  →  fConstFArith
		case a.Op == OpConstF && isFloatArith(b.Op):
			code[pc] = Instr{
				Op: fConstFArith, A: a.A, F: a.F,
				B: b.A, C: b.B, Imm3: int64(b.C), Imm2: int64(b.Op),
			}
			used[pc], used[pc+1] = true, true

		// intop rD, rX, rY ; goto L          →  fArithGoto (loop back edge)
		case isIntArith(a.Op) && a.Op != OpDiv && a.Op != OpRem && b.Op == OpGoto:
			code[pc] = Instr{
				Op: fArithGoto, A: a.A, B: a.B, C: a.C,
				Imm2: int64(a.Op), Imm: b.Imm,
			}
			used[pc], used[pc+1] = true, true

		// const rK, Imm ; aput rK, rArr, rIx →  fConstAPut
		case a.Op == OpConst && b.Op == OpAPut && b.A == a.A:
			code[pc] = Instr{
				Op: fConstAPut, A: a.A, Imm2: a.Imm, B: b.B, C: b.C,
			}
			used[pc], used[pc+1] = true, true

		// aget rD, rArr, rIx ; ifnz/ifz rD, L → fAGetBranch
		case a.Op == OpAGet && (b.Op == OpIfNz || b.Op == OpIfZ) && b.B == a.A:
			nz := int64(0)
			if b.Op == OpIfNz {
				nz = 1
			}
			code[pc] = Instr{
				Op: fAGetBranch, A: a.A, B: a.B, C: a.C,
				Imm: b.Imm, Imm2: nz,
			}
			used[pc], used[pc+1] = true, true
		}
	}
	return code
}

func isIntArith(op Op) bool {
	switch op {
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr, OpCmp:
		return true
	}
	return false
}

func isFloatArith(op Op) bool {
	switch op {
	case OpAddF, OpSubF, OpMulF, OpDivF, OpCmpF:
		return true
	}
	return false
}

// divisorMayBeZero reports whether the divisor operand of the arith half
// of a const+div/rem pair could be zero: either it is not the const
// register (runtime value), or the const itself is zero.
func divisorMayBeZero(cst, arith *Instr) bool {
	if arith.C != cst.A {
		return true // divisor is a runtime register
	}
	return cst.Imm == 0
}

// maxLeafRegs caps the register count of a leaf method: a frame-free leaf
// call runs over the thread's fixed scratch window (Thread.leafRegs).
const maxLeafRegs = 16

// leafShape reports whether the fast-eligible method m is a leaf, which
// the fast loop calls without a frame (runLeaf); which of its non-argument
// registers it reads before writing; and which argument, if any, it
// returns unchanged (-1 when it returns an integer it computed).
//
// A leaf is straight-line and register-only: const, move, integer
// arithmetic and compares, neg/not, ending in its only return, with at
// most maxLeafRegs registers. div/rem are allowed only when the divisor
// register was last written by a non-zero const of the leaf itself. No
// instruction of such a body can fault, stop, deoptimize, call or touch
// the heap, so once its whole length fits the budget it runs to its
// return exactly as a framed call would, and nothing can observe the
// frame it never had. Its arithmetic reads and writes only the integer
// datum of a register; a move carries a whole Value, which matters only
// when the moved argument is what the leaf returns. The zero mask lists
// the registers a fresh frame would hand it as int(0).
func leafShape(m *Method) (zero uint16, arg int, ok bool) {
	if m.NRegs > maxLeafRegs || m.NArgs > m.NRegs || len(m.Code) == 0 {
		return 0, -1, false
	}
	var written, nonzero uint16
	written = uint16(uint32(1)<<uint(m.NArgs) - 1) // the arguments
	// src[r] is the argument whose Value register r holds unchanged, or -1.
	var src [maxLeafRegs]int
	for r := range src {
		src[r] = -1
		if r < m.NArgs {
			src[r] = r
		}
	}
	valid := func(r int) bool { return r >= 0 && r < m.NRegs }
	read := func(r int) {
		if written&(1<<uint(r)) == 0 {
			zero |= 1 << uint(r)
		}
	}
	last := len(m.Code) - 1
	for pc := range m.Code {
		in := &m.Code[pc]
		switch {
		case in.Op == OpReturn && pc == last:
			if !valid(in.B) {
				return 0, -1, false
			}
			read(in.B)
			return zero, src[in.B], true
		case in.Op == OpConst:
		case in.Op == OpMove || in.Op == OpNeg || in.Op == OpNot:
			if !valid(in.B) {
				return 0, -1, false
			}
			read(in.B)
		case isIntArith(in.Op):
			if !valid(in.B) || !valid(in.C) {
				return 0, -1, false
			}
			if (in.Op == OpDiv || in.Op == OpRem) && nonzero&(1<<uint(in.C)) == 0 {
				return 0, -1, false
			}
			read(in.B)
			read(in.C)
		default:
			return 0, -1, false
		}
		if !valid(in.A) {
			return 0, -1, false
		}
		written |= 1 << uint(in.A)
		if in.Op == OpConst && in.Imm != 0 {
			nonzero |= 1 << uint(in.A)
		} else {
			nonzero &^= 1 << uint(in.A)
		}
		from := -1
		if in.Op == OpMove {
			from = src[in.B]
		}
		src[in.A] = from
	}
	return 0, -1, false
}
