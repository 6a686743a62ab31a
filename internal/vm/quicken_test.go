package vm

import (
	"testing"

	"tinman/internal/taint"
)

// TestLeafShape pins the leaf rule (leafShape): straight-line,
// register-only bodies ending in their only return, div/rem only by a
// non-zero const, at most maxLeafRegs registers; the zero mask of
// registers read before they are written; and the argument a leaf returns
// unchanged.
func TestLeafShape(t *testing.T) {
	ins := func(code ...Instr) []Instr { return code }
	cases := []struct {
		name  string
		nargs int
		nregs int
		code  []Instr
		leaf  bool
		zero  uint16
		arg   int
	}{
		{"tiny", 1, 5, ins(
			Instr{Op: OpConst, A: 1, Imm: 3}, Instr{Op: OpAdd, A: 2, B: 0, C: 1},
			Instr{Op: OpMul, A: 3, B: 2, C: 2}, Instr{Op: OpXor, A: 4, B: 3, C: 1},
			Instr{Op: OpReturn, B: 4}), true, 0, -1},
		{"reads r2 r3 unwritten", 1, 4, ins(
			Instr{Op: OpAdd, A: 1, B: 2, C: 3}, Instr{Op: OpMove, A: 2, B: 1},
			Instr{Op: OpReturn, B: 2}), true, 1<<2 | 1<<3, -1},
		{"div by const", 1, 3, ins(
			Instr{Op: OpConst, A: 1, Imm: -7}, Instr{Op: OpRem, A: 2, B: 0, C: 1},
			Instr{Op: OpReturn, B: 2}), true, 0, -1},
		{"div by zero const", 1, 3, ins(
			Instr{Op: OpConst, A: 1, Imm: 0}, Instr{Op: OpDiv, A: 2, B: 0, C: 1},
			Instr{Op: OpReturn, B: 2}), false, 0, -1},
		{"div by overwritten const", 1, 3, ins(
			Instr{Op: OpConst, A: 1, Imm: 2}, Instr{Op: OpNeg, A: 1, B: 0},
			Instr{Op: OpDiv, A: 2, B: 0, C: 1}, Instr{Op: OpReturn, B: 2}), false, 0, -1},
		{"div by register", 2, 3, ins(
			Instr{Op: OpDiv, A: 2, B: 0, C: 1}, Instr{Op: OpReturn, B: 2}), false, 0, -1},
		{"16 registers", 1, 16, ins(
			Instr{Op: OpMove, A: 15, B: 0}, Instr{Op: OpReturn, B: 15}), true, 0, 0},
		{"17 registers", 1, 17, ins(
			Instr{Op: OpMove, A: 16, B: 0}, Instr{Op: OpReturn, B: 16}), false, 0, -1},
		{"branch", 1, 2, ins(
			Instr{Op: OpIfZ, B: 0, Imm: 1}, Instr{Op: OpReturn, B: 0}), false, 0, -1},
		{"two returns", 1, 2, ins(
			Instr{Op: OpReturn, B: 0}, Instr{Op: OpReturn, B: 0}), false, 0, -1},
		{"retvoid", 1, 2, ins(Instr{Op: OpRetVoid}), false, 0, -1},
		{"float", 1, 2, ins(
			Instr{Op: OpConstF, A: 1, F: 1}, Instr{Op: OpReturn, B: 1}), false, 0, -1},
		{"heap read", 1, 3, ins(
			Instr{Op: OpArrLen, A: 1, B: 0}, Instr{Op: OpReturn, B: 1}), false, 0, -1},
		{"returns moved argument", 2, 4, ins(
			Instr{Op: OpMove, A: 2, B: 1}, Instr{Op: OpMove, A: 3, B: 3},
			Instr{Op: OpAdd, A: 1, B: 0, C: 2}, Instr{Op: OpReturn, B: 2}), true, 1 << 3, 1},
		{"returns argument", 1, 1, ins(
			Instr{Op: OpMove, A: 0, B: 0}, Instr{Op: OpReturn, B: 0}), true, 0, 0},
		{"returns overwritten argument", 1, 2, ins(
			Instr{Op: OpMove, A: 1, B: 0}, Instr{Op: OpNeg, A: 1, B: 1}, Instr{Op: OpReturn, B: 1}), true, 0, -1},
		{"call", 1, 2, ins(
			Instr{Op: OpInvoke, A: 1, Sym: "f", Sym2: "C"}, Instr{Op: OpReturn, B: 1}), false, 0, -1},
	}
	for _, c := range cases {
		m := &Method{Name: c.name, NArgs: c.nargs, NRegs: c.nregs, Code: c.code}
		zero, arg, leaf := leafShape(m)
		if leaf != c.leaf || zero != c.zero || arg != c.arg {
			t.Errorf("%s: leaf %v zero %b arg %d, want %v %b %d", c.name, leaf, zero, arg, c.leaf, c.zero, c.arg)
		}
	}
}

// TestLeafCallsPushNoFrame checks that the login apps' leaf runs without a
// frame: a loop of leaf calls leaves only the outermost frame in the
// pool, while the same loop over a framed callee pools the callee's too.
func TestLeafCallsPushNoFrame(t *testing.T) {
	p := NewProgram("calls")
	c := NewClass("W")
	body := []Instr{
		{Op: OpConst, A: 1, Imm: 3}, {Op: OpAdd, A: 2, B: 0, C: 1},
		{Op: OpMul, A: 3, B: 2, C: 2}, {Op: OpXor, A: 4, B: 3, C: 1},
		{Op: OpReturn, B: 4},
	}
	c.AddMethod(&Method{Name: "tiny", NArgs: 1, NRegs: 5, Code: body})
	c.AddMethod(&Method{Name: "framed", NArgs: 1, NRegs: 5,
		Code: append([]Instr{{Op: OpIfZ, B: 0, Imm: 1}}, body...)})
	for _, callee := range []string{"tiny", "framed"} {
		c.AddMethod(&Method{Name: callee + "Loop", NArgs: 1, NRegs: 4, Code: []Instr{
			{Op: OpIfZ, B: 0, Imm: 5},
			{Op: OpInvoke, A: 2, Sym: callee, Sym2: "W", Args: []int{0}},
			{Op: OpConst, A: 3, Imm: 1},
			{Op: OpSub, A: 0, B: 0, C: 3},
			{Op: OpGoto, Imm: 0},
			{Op: OpReturn, B: 2},
		}})
	}
	p.AddClass(c)
	p.Seal()
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	if !p.Method("W", "tiny").leaf || p.Method("W", "framed").leaf {
		t.Fatal("tiny must be a leaf and framed not")
	}
	v := New(Config{Program: p, Heap: NewHeap(1, 2)})
	for callee, pooled := range map[string]int{"tiny": 1, "framed": 2} {
		th, err := v.NewThread(p.Method("W", callee+"Loop"), IntVal(50))
		if err != nil {
			t.Fatal(err)
		}
		if stop, err := th.Run(); err != nil || stop != StopDone {
			t.Fatalf("%s: stop %v, err %v", callee, stop, err)
		}
		if len(th.framePool) != pooled || v.Calls == 0 {
			t.Errorf("%s: %d pooled frames, want %d", callee, len(th.framePool), pooled)
		}
	}
}

// TestLeafReturnsArgumentValue: a leaf whose result is an argument it
// moved runs over the integer window but returns the argument's whole
// Value, a reference here, as the framed call does.
func TestLeafReturnsArgumentValue(t *testing.T) {
	p := NewProgram("id")
	c := NewClass("W")
	c.AddMethod(&Method{Name: "id", NArgs: 1, NRegs: 3, Code: []Instr{
		{Op: OpMove, A: 1, B: 0}, {Op: OpConst, A: 2, Imm: 1}, {Op: OpAdd, A: 2, B: 2, C: 1},
		{Op: OpReturn, B: 1},
	}})
	c.AddMethod(&Method{Name: "main", NArgs: 1, NRegs: 2, Code: []Instr{
		{Op: OpInvoke, A: 1, Sym: "id", Sym2: "W", Args: []int{0}},
		{Op: OpReturn, B: 1},
	}})
	p.AddClass(c)
	p.Seal()
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	if m := p.Method("W", "id"); !m.leaf || m.leafArg != 0 {
		t.Fatalf("id: leaf %v arg %d, want a leaf returning argument 0", m.leaf, m.leafArg)
	}
	v := New(Config{Program: p, Heap: NewHeap(1, 2), Policy: taint.Asymmetric})
	s := v.NewString("kept")
	th, err := v.NewThread(p.Method("W", "main"), RefVal(s))
	if err != nil {
		t.Fatal(err)
	}
	if stop, err := th.Run(); err != nil || stop != StopDone {
		t.Fatalf("stop %v, err %v", stop, err)
	}
	if r := th.Result; r.Kind != KindRef || r.Ref != s {
		t.Fatalf("result %v, want the argument's reference", r)
	}
}
