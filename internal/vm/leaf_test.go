package vm_test

import (
	"math"
	"testing"
	"unsafe"

	"tinman/internal/taint"
	"tinman/internal/vm"
	"tinman/internal/vm/asm"
)

// callSrc is the login apps' busy loop (apps.Spec.Source's Work class) with
// a second callee that is fast-eligible but not a leaf: the same body as
// tiny behind a branch, so every call of it pushes a frame.
const callSrc = `
class Work
  method tiny 1 5
    const r1, 3
    add r2, r0, r1
    mul r3, r2, r2
    xor r4, r3, r1
    return r4
  end
  method framed 1 5
    ifz r0, skip
  skip:
    const r1, 3
    add r2, r0, r1
    mul r3, r2, r2
    xor r4, r3, r1
    return r4
  end
  method leafLoop 1 6
    const r1, 0
  loop:
    ifge r1, r0, done
    invoke r2, Work.tiny, r1
    const r3, 1
    add r1, r1, r3
    goto loop
  done:
    return r1
  end
  method framedLoop 1 6
    const r1, 0
  loop:
    ifge r1, r0, done
    invoke r2, Work.framed, r1
    const r3, 1
    add r1, r1, r3
    goto loop
  done:
    return r1
  end
end`

// TestValueLayout pins the register layout: Int and the float bits share
// one datum, so a Value is four words.
func TestValueLayout(t *testing.T) {
	if n := unsafe.Sizeof(vm.Value{}); n > 32 {
		t.Fatalf("unsafe.Sizeof(vm.Value{}) = %d, want <= 32", n)
	}
}

// callLoop runs Work.<method>(n) to completion on m.
func callLoop(tb testing.TB, m *vm.VM, method string, n int64) {
	th, err := m.NewThread(m.Program.Method("Work", method), vm.IntVal(n))
	if err != nil {
		tb.Fatal(err)
	}
	if stop, err := th.Run(); err != nil || stop != vm.StopDone {
		tb.Fatalf("%s: stop %v, err %v", method, stop, err)
	}
}

// TestWarmCallsDoNotAllocate fails if a warm leaf call or a warm framed
// fast-to-fast call allocates: a run with 1000 calls must allocate exactly
// what a run with one call does (the thread, its first frame, and the one
// pooled callee frame a framed call needs).
func TestWarmCallsDoNotAllocate(t *testing.T) {
	prog, err := asm.Assemble("calls", callSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []taint.Policy{taint.Off, taint.Asymmetric} {
		m := vm.New(vm.Config{Program: prog, Heap: vm.NewHeap(1, 2), Policy: pol})
		for _, method := range []string{"leafLoop", "framedLoop"} {
			one := testing.AllocsPerRun(20, func() { callLoop(t, m, method, 1) })
			many := testing.AllocsPerRun(20, func() { callLoop(t, m, method, 1000) })
			if many != one {
				t.Errorf("%s %s: %v allocs for 1000 calls, %v for one call", pol.Name(), method, many, one)
			}
		}
	}
}

func benchCalls(b *testing.B, method string) {
	prog, err := asm.Assemble("calls", callSrc)
	if err != nil {
		b.Fatal(err)
	}
	m := vm.New(vm.Config{Program: prog, Heap: vm.NewHeap(1, 2), Policy: taint.Asymmetric})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		callLoop(b, m, method, 1000)
	}
}

// BenchmarkLeafInvoke times 1000 frame-free calls of the login apps' leaf
// Work.tiny from the fast loop, under the device's asymmetric policy.
func BenchmarkLeafInvoke(b *testing.B) { benchCalls(b, "leafLoop") }

// BenchmarkFramedInvoke times 1000 fast-to-fast calls that push a frame:
// the same body as Work.tiny behind a branch, which no leaf may contain.
func BenchmarkFramedInvoke(b *testing.B) { benchCalls(b, "framedLoop") }

// floatSrc moves its float arguments through registers, a field, an array
// element and arithmetic that leaves the bits alone (neg twice, and an
// exact multiply by 1.0), and returns the slot the selector r2 names.
const floatSrc = `
class Box
  field f
end
class F
  method through 3 12
    move r3, r0
    new r4, Box
    iput r3, r4, f
    iget r5, r4, f
    const r6, 1
    newarr r7, r6
    const r8, 0
    aput r5, r7, r8
    aget r9, r7, r8
    negf r10, r9
    negf r10, r10
    mulf r11, r10, r1
    ifz r2, last
    return r10
  last:
    return r11
  end
end`

// TestFloatBitsSurvive pins that a float keeps its exact bits through the
// shared datum: -0.0, both infinities and a NaN with a payload, through a
// constf immediate, registers, a field, an array element, float
// arithmetic and a returned value, under every interpreter configuration.
func TestFloatBitsSurvive(t *testing.T) {
	prog, err := asm.Assemble("floats", floatSrc)
	if err != nil {
		t.Fatal(err)
	}
	nanPayload := math.Float64frombits(0x7ff8_0000_dead_beef)
	cases := []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), nanPayload, 2.5}
	for _, x := range cases {
		want := math.Float64bits(x)
		if got := math.Float64bits(vm.FloatVal(x).Float()); got != want {
			t.Fatalf("FloatVal(%x).Float() bits %x", want, got)
		}
		for _, cfg := range []vm.Config{
			{Policy: taint.Off}, {Policy: taint.Asymmetric},
			{Policy: taint.Full, NoFastPath: true}, {Policy: taint.Full, SlowPath: true},
		} {
			cfg.Program, cfg.Heap = prog, vm.NewHeap(1, 2)
			m := vm.New(cfg)
			for sel := int64(0); sel < 2; sel++ {
				th, err := m.NewThread(prog.Method("F", "through"), vm.FloatVal(x), vm.FloatVal(1), vm.IntVal(sel))
				if err != nil {
					t.Fatal(err)
				}
				if stop, err := th.Run(); err != nil || stop != vm.StopDone {
					t.Fatalf("stop %v, err %v", stop, err)
				}
				r := th.Result
				// x * 1.0 is exact for every input but a NaN, whose payload
				// the hardware keeps; compare against the host's own result.
				w := want
				if sel == 0 {
					w = math.Float64bits(x * 1)
				}
				if r.Kind != vm.KindFloat || uint64(r.Int) != w {
					t.Errorf("%s sel %d: %v bits %x, want %x", cfg.Policy.Name(), sel, r.Kind, uint64(r.Int), w)
				}
			}
		}

		// The same value as a constf immediate, moved and returned.
		p := vm.NewProgram("constf")
		c := vm.NewClass("K")
		c.AddMethod(&vm.Method{Name: "k", NRegs: 2, Code: []vm.Instr{
			{Op: vm.OpConstF, A: 0, F: x}, {Op: vm.OpMove, A: 1, B: 0}, {Op: vm.OpReturn, B: 1},
		}})
		p.AddClass(c)
		p.Seal()
		if err := p.Verify(); err != nil {
			t.Fatal(err)
		}
		th, err := vm.New(vm.Config{Program: p, Heap: vm.NewHeap(1, 2)}).NewThread(p.Method("K", "k"))
		if err != nil {
			t.Fatal(err)
		}
		if stop, err := th.Run(); err != nil || stop != vm.StopDone {
			t.Fatalf("constf: stop %v, err %v", stop, err)
		}
		if r := th.Result; r.Kind != vm.KindFloat || uint64(r.Int) != want {
			t.Errorf("constf %x: %v bits %x", want, r.Kind, uint64(r.Int))
		}
	}
}

// reuseSrc makes a fast push reuse a frame that ran tracked: dirty deopts
// on a tainted array element and leaves taint in r3 and r4, then returns
// clean; probe is pushed into dirty's pooled frame, deopts the same way,
// and returns r3, which it never wrote.
const reuseSrc = `
class P
  method dirty 1 5
    const r1, 0
    aget r2, r0, r1
    move r3, r2
    move r4, r2
    return r1
  end
  method probe 1 5
    const r1, 0
    aget r2, r0, r1
    return r3
  end
  method main 1 3
    invoke r1, P.dirty, r0
    invoke r2, P.probe, r0
    return r2
  end
end`

// TestFastPushClearsTrackedTags pins the pooled-frame contract of the
// fast-to-fast push: it may skip clearing the shadow tags of a frame that
// last ran clean, but a frame that ran tracked must come back with every
// tag None, or a register the callee never wrote would read as tainted.
func TestFastPushClearsTrackedTags(t *testing.T) {
	prog, err := asm.Assemble("reuse", reuseSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []taint.Policy{taint.Full, taint.Asymmetric} {
		fast, control := twoVMs(prog, pol)
		run := func(m *vm.VM) vm.Value {
			arr := m.Heap.AllocArray(m.ArrayClass(), 1)
			arr.Elems[0] = vm.IntVal(7)
			arr.SetElemTag(0, taint.Bit(2))
			th, err := m.NewThread(prog.Method("P", "main"), vm.RefVal(arr))
			if err != nil {
				t.Fatal(err)
			}
			if stop, err := th.Run(); err != nil || stop != vm.StopDone {
				t.Fatalf("stop %v, err %v", stop, err)
			}
			return th.Result
		}
		fr, cr := run(fast), run(control)
		checkSame(t, pol.Name(), fast, control, fr, cr)
		if fr.Tag != taint.None {
			t.Errorf("%s: unwritten register of a reused frame read as tainted %v", pol.Name(), fr.Tag)
		}
	}
}
