package vm_test

import (
	"strings"
	"testing"

	"tinman/internal/taint"
	"tinman/internal/vm"
	"tinman/internal/vm/asm"
)

// cleanSrc contains no in-program taint source: the heap bit stays clear,
// so heap-reading methods classify as boundary rather than tracked.
const cleanSrc = `
class C
  method pure 1 4
    const r1, 2
    mul r2, r0, r1
    return r2
  end
  method reader 1 4
    const r1, 0
    aget r2, r0, r1
    return r2
  end
  method callspure 1 3
    invoke r1, C.pure, r0
    return r1
  end
  method mixed 1 6
    const r1, 1
    add r2, r0, r1
    ifz r2, load
    return r2
  load:
    const r3, 0
    aget r4, r0, r3
    return r4
  end
end`

// taintingSrc stores taint from program code: the heap bit is set, so
// every heap reader classifies as tracked.
const taintingSrc = `
class T
  method marker 1 2
    taintset r0, 2
    return r0
  end
  method reader 1 4
    const r1, 0
    aget r2, r0, r1
    return r2
  end
  method callsmarker 1 3
    invoke r1, T.marker, r0
    return r1
  end
end`

func analyzed(t *testing.T, name, src string) *vm.Program {
	t.Helper()
	prog, err := asm.Assemble(name, src)
	if err != nil {
		t.Fatal(err)
	}
	if !prog.Analyzed() {
		t.Fatal("assembled program is not analyzed")
	}
	return prog
}

func TestTaintflowVerdicts(t *testing.T) {
	clean := analyzed(t, "clean", cleanSrc)
	if a := clean.Analysis(); a.HeapMayTaint {
		t.Error("clean program: HeapMayTaint = true, want false")
	}
	wantClean := map[string]vm.Verdict{
		"pure":      vm.VerdictFast,
		"reader":    vm.VerdictBoundary, // aget guards against external taint
		"callspure": vm.VerdictFast,     // calling fast code needs no guard
		"mixed":     vm.VerdictBoundary,
	}
	for name, want := range wantClean {
		m := clean.Method("C", name)
		if got := m.Verdict(); got != want {
			t.Errorf("clean %s: verdict %v, want %v", name, got, want)
		}
	}

	tainting := analyzed(t, "tainting", taintingSrc)
	if a := tainting.Analysis(); !a.HeapMayTaint {
		t.Error("tainting program: HeapMayTaint = false, want true")
	}
	wantTaint := map[string]vm.Verdict{
		"marker":      vm.VerdictTracked, // manipulates taint directly
		"reader":      vm.VerdictTracked, // heap bit set: reads may carry taint
		"callsmarker": vm.VerdictBoundary,
	}
	for name, want := range wantTaint {
		m := tainting.Method("T", name)
		if got := m.Verdict(); got != want {
			t.Errorf("tainting %s: verdict %v, want %v", name, got, want)
		}
	}
}

func TestTaintflowRegionsCoverMethod(t *testing.T) {
	for _, src := range []string{cleanSrc, taintingSrc} {
		prog := analyzed(t, "prog", src)
		a := prog.Analysis()
		for _, c := range prog.Classes() {
			for _, m := range c.Methods {
				flow := a.Flow(m)
				if flow == nil {
					t.Fatalf("%s: no flow", m.FullName())
				}
				// Regions tile [0, len(Code)) without gaps or overlaps, and
				// no two adjacent regions share a verdict (else they would
				// have been coalesced).
				at := 0
				for i, r := range flow.Regions {
					if r.Start != at || r.End <= r.Start {
						t.Fatalf("%s: region %d = [%d,%d), want start %d", m.FullName(), i, r.Start, r.End, at)
					}
					if i > 0 && flow.Regions[i-1].Verdict == r.Verdict {
						t.Errorf("%s: regions %d and %d share verdict %v", m.FullName(), i-1, i, r.Verdict)
					}
					at = r.End
				}
				if at != len(m.Code) {
					t.Fatalf("%s: regions end at %d, code length %d", m.FullName(), at, len(m.Code))
				}
			}
		}
	}

	// mixed has a fast arithmetic block and a guarded load block.
	prog := analyzed(t, "clean", cleanSrc)
	flow := prog.Analysis().Flow(prog.Method("C", "mixed"))
	var seen []vm.Verdict
	for _, r := range flow.Regions {
		seen = append(seen, r.Verdict)
	}
	if len(seen) < 2 {
		t.Fatalf("mixed: want >= 2 regions, got %v", seen)
	}
	hasFast, hasBoundary := false, false
	for _, v := range seen {
		hasFast = hasFast || v == vm.VerdictFast
		hasBoundary = hasBoundary || v == vm.VerdictBoundary
	}
	if !hasFast || !hasBoundary {
		t.Errorf("mixed regions = %v, want both fast and boundary", seen)
	}
}

func TestDisassembleVerdictAnnotations(t *testing.T) {
	prog := analyzed(t, "clean", cleanSrc)
	out := prog.Disassemble()
	for _, want := range []string{
		"; taintflow: fast",
		"; taintflow: boundary",
		"; region 0..3: fast",     // mixed's arithmetic prefix
		"; region 4..6: boundary", // mixed's guarded load block
	} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
	// Uniform methods carry no region lines — the header says it all.
	if got := strings.Count(out, "; region"); got != 2 {
		t.Errorf("disassembly has %d region lines, want 2 (mixed only):\n%s", got, out)
	}
	// Annotated output still round-trips through the assembler.
	back, err := asm.Assemble("clean", out)
	if err != nil {
		t.Fatalf("annotated disassembly does not re-assemble: %v", err)
	}
	if back.Hash() != prog.Hash() {
		t.Error("annotated disassembly round-trips to a different program")
	}

	tracked := analyzed(t, "tainting", taintingSrc).Disassemble()
	if !strings.Contains(tracked, "; taintflow: tracked") {
		t.Errorf("tainting disassembly missing tracked verdict:\n%s", tracked)
	}
}

// twoVMs builds a fast-path VM and a NoFastPath control on the same
// program and policy, both without stats: the configuration devices run,
// and the only one in which the fast loop runs.
func twoVMs(prog *vm.Program, policy taint.Policy) (fast, control *vm.VM) {
	mk := func(noFast bool) *vm.VM {
		return vm.New(vm.Config{
			Program:    prog,
			Heap:       vm.NewHeap(1, 2),
			Policy:     policy,
			NoFastPath: noFast,
		})
	}
	return mk(false), mk(true)
}

// checkSame asserts the observable outcome of two runs is bit-identical.
func checkSame(t *testing.T, what string, fast, control *vm.VM, fr, cr vm.Value) {
	t.Helper()
	if fr.Kind != cr.Kind || fr.Int != cr.Int || fr.Ref != cr.Ref && (fr.Ref == nil || cr.Ref == nil || fr.Ref.Str != cr.Ref.Str) {
		t.Errorf("%s: results diverge: %+v vs %+v", what, fr, cr)
	}
	if fr.Tag != cr.Tag {
		t.Errorf("%s: result tags diverge: %v vs %v", what, fr.Tag, cr.Tag)
	}
	if fast.Instrs != control.Instrs {
		t.Errorf("%s: instruction counts diverge: %d vs %d", what, fast.Instrs, control.Instrs)
	}
	if fast.Calls != control.Calls {
		t.Errorf("%s: call counts diverge: %d vs %d", what, fast.Calls, control.Calls)
	}
}

// TestFastPathNativeTaintDeopt covers guard channel 2: taint appears
// mid-method as a native-call result. The frame enters the fast loop
// (verdict boundary), the native completes, and the frame must deoptimize
// with the result tag intact.
func TestFastPathNativeTaintDeopt(t *testing.T) {
	const src = `
class N
  method login 1 6
    const r1, 10
    add r2, r0, r1
    native r3, getsecret
    add r4, r3, r2
    return r4
  end
end`
	prog := analyzed(t, "n", src)
	if got := prog.Method("N", "login").Verdict(); got != vm.VerdictBoundary {
		t.Fatalf("login verdict %v, want boundary (native result is guarded, not tracked)", got)
	}
	secret := &vm.NativeDef{
		Name: "getsecret",
		Fn: func(th *vm.Thread, args []vm.Value) (vm.Value, error) {
			r := vm.IntVal(41)
			r.Tag = taint.Bit(1)
			return r, nil
		},
	}
	fast, control := twoVMs(prog, taint.Full)
	fast.RegisterNative(secret)
	control.RegisterNative(secret)

	run := func(machine *vm.VM) vm.Value {
		th, err := machine.NewThread(prog.Method("N", "login"), vm.IntVal(7))
		if err != nil {
			t.Fatal(err)
		}
		stop, err := th.Run()
		if err != nil || stop != vm.StopDone {
			t.Fatalf("stop=%v err=%v", stop, err)
		}
		return th.Result
	}
	fr, cr := run(fast), run(control)
	checkSame(t, "native-taint", fast, control, fr, cr)
	if fr.Tag.Empty() {
		t.Error("tainted native result lost its tag through the fast path")
	}
	if fast.FastInstrs == 0 {
		t.Error("fast path never engaged")
	}
	if fast.FastInstrs >= fast.Instrs {
		t.Errorf("no deopt visible: FastInstrs %d, Instrs %d", fast.FastInstrs, fast.Instrs)
	}
}

// TestFastPathCrossThreadFieldTaint covers guard channel 1 with taint that
// is invisible to the static analysis: a field of a shared object becomes
// tainted mid-run while reader threads are interleaving under the
// scheduler. (Any *in-program* taint store flips the readers' verdict to
// tracked — TestTaintflowVerdicts — so a running fast frame can only ever
// trip this guard on externally introduced taint: framework cor loads,
// cross-thread stores, DSM sync. The test injects it the way the framework
// does, between scheduler quanta.)
func TestFastPathCrossThreadFieldTaint(t *testing.T) {
	const src = `
class S
  field secret
  method mk 0 2
    new r0, S
    return r0
  end
  method read 2 8
    const r2, 0
    const r3, 1
  loop:
    ifge r2, r1, done
    iget r4, r0, secret
    add r5, r5, r4
    add r2, r2, r3
    goto loop
  done:
    return r5
  end
end`
	prog := analyzed(t, "s", src)
	if got := prog.Method("S", "read").Verdict(); got != vm.VerdictBoundary {
		t.Fatalf("read verdict %v, want boundary", got)
	}

	run := func(machine *vm.VM) vm.Value {
		mk, err := machine.NewThread(prog.Method("S", "mk"))
		if err != nil {
			t.Fatal(err)
		}
		if stop, err := mk.Run(); err != nil || stop != vm.StopDone {
			t.Fatalf("mk: stop=%v err=%v", stop, err)
		}
		shared := mk.Result.Ref

		s := vm.NewScheduler(machine)
		s.Quantum = 50
		a, err := s.Spawn(prog.Method("S", "read"), vm.RefVal(shared), vm.IntVal(300))
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Spawn(prog.Method("S", "read"), vm.RefVal(shared), vm.IntVal(300))
		if err != nil {
			t.Fatal(err)
		}
		// Let both readers run a few quanta on the fast path, then taint
		// the shared field and drain the schedule. The step count is fixed,
		// so both VMs see the taint land at the identical point.
		for i := 0; i < 6; i++ {
			if _, err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
		shared.SetFieldTag(0, taint.Bit(2))
		for {
			more, err := s.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !more {
				break
			}
		}
		if a.State != vm.ThreadFinished || b.State != vm.ThreadFinished {
			t.Fatalf("states: %v %v", a.State, b.State)
		}
		if a.Result.Tag != b.Result.Tag {
			t.Fatalf("reader tags diverge: %v vs %v", a.Result.Tag, b.Result.Tag)
		}
		return a.Result
	}

	fast, control := twoVMs(prog, taint.Full)
	fr, cr := run(fast), run(control)
	checkSame(t, "cross-thread", fast, control, fr, cr)
	if fr.Tag.Empty() {
		t.Error("cross-thread field taint was lost: reader result is untainted")
	}
	if fast.FastInstrs == 0 {
		t.Error("fast path never engaged")
	}
	if fast.FastInstrs >= fast.Instrs {
		t.Errorf("no deopt visible: FastInstrs %d, Instrs %d", fast.FastInstrs, fast.Instrs)
	}
}

// TestFastPathTaintedEntryArgs covers guard channel 4: a fast-eligible
// method invoked with a tainted argument must run tracked from the start.
func TestFastPathTaintedEntryArgs(t *testing.T) {
	prog := analyzed(t, "clean", cleanSrc)
	fast, control := twoVMs(prog, taint.Full)
	run := func(machine *vm.VM) vm.Value {
		arg := vm.IntVal(21)
		arg.Tag = taint.Bit(3)
		th, err := machine.NewThread(prog.Method("C", "pure"), arg)
		if err != nil {
			t.Fatal(err)
		}
		if stop, err := th.Run(); err != nil || stop != vm.StopDone {
			t.Fatalf("stop=%v err=%v", stop, err)
		}
		return th.Result
	}
	fr, cr := run(fast), run(control)
	checkSame(t, "tainted-entry", fast, control, fr, cr)
	if fr.Tag.Empty() {
		t.Error("tainted argument lost its tag")
	}
	if fast.FastInstrs != 0 {
		t.Errorf("fast path ran %d instructions of a tainted frame", fast.FastInstrs)
	}
}

// TestFastPathBudgetWithFusedOps pins StopLimit exactness: the quickened
// stream executes fused superinstructions (two instructions per dispatch),
// but a Run bounded by MaxInstrs must stop after exactly the same
// instruction count as the unanalyzed interpreter, every quantum, even
// when the budget boundary lands inside a fused pair.
func TestFastPathBudgetWithFusedOps(t *testing.T) {
	const src = `
class B
  method loop 1 6
    const r1, 0
    const r2, 0
  head:
    ifge r2, r0, done
    const r3, 3
    add r1, r1, r3
    const r4, 1
    add r2, r2, r4
    goto head
  done:
    return r1
  end
end`
	prog := analyzed(t, "b", src)
	m := prog.Method("B", "loop")
	if m.Verdict() != vm.VerdictFast {
		t.Fatalf("loop verdict %v, want fast", m.Verdict())
	}

	for _, quantum := range []uint64{1, 2, 3, 7, 50} {
		fast, control := twoVMs(prog, taint.Off)
		run := func(machine *vm.VM) (vm.Value, int) {
			th, err := machine.NewThread(m, vm.IntVal(100))
			if err != nil {
				t.Fatal(err)
			}
			th.MaxInstrs = quantum
			quanta := 0
			for {
				stop, err := th.Run()
				if err != nil {
					t.Fatal(err)
				}
				quanta++
				if stop == vm.StopDone {
					return th.Result, quanta
				}
				if stop != vm.StopLimit {
					t.Fatalf("stop = %v", stop)
				}
			}
		}
		fr, fq := run(fast)
		cr, cq := run(control)
		checkSame(t, "budget", fast, control, fr, cr)
		if fq != cq {
			t.Errorf("quantum %d: fast finished in %d quanta, control in %d", quantum, fq, cq)
		}
		if fast.FastInstrs != fast.Instrs {
			t.Errorf("quantum %d: FastInstrs %d != Instrs %d for an all-fast program",
				quantum, fast.FastInstrs, fast.Instrs)
		}
	}
}

// TestCollectStatsRunsTracked pins where propagation counts come from: a
// VM built with CollectStats runs every instruction on the tracked loop,
// even for an analyzed program whose code the fast loop would otherwise
// take, and counts exactly what a NoFastPath VM counts. `tinman-asm run
// -stats` relies on this.
func TestCollectStatsRunsTracked(t *testing.T) {
	const src = `
class S
  method tiny 1 5
    const r1, 3
    add r2, r0, r1
    mul r3, r2, r2
    xor r4, r3, r1
    return r4
  end
  method main 1 9
    newarr r1, r0
    const r2, 0
    const r3, 0
    conststr r6, "ab"
  loop:
    ifge r2, r0, done
    invoke r4, S.tiny, r2
    aput r4, r1, r2
    aget r5, r1, r2
    add r3, r3, r5
    strcat r7, r6, r6
    const r8, 1
    add r2, r2, r8
    goto loop
  done:
    return r3
  end
end`
	prog := analyzed(t, "s", src)
	m := prog.Method("S", "main")
	for _, pol := range []taint.Policy{taint.Off, taint.Full, taint.Asymmetric} {
		run := func(cfg vm.Config) *vm.VM {
			cfg.Program, cfg.Heap, cfg.Policy = prog, vm.NewHeap(1, 2), pol
			machine := vm.New(cfg)
			th, err := machine.NewThread(m, vm.IntVal(20))
			if err != nil {
				t.Fatal(err)
			}
			if stop, err := th.Run(); stop != vm.StopDone || err != nil {
				t.Fatalf("%s: stop %v, err %v", pol.Name(), stop, err)
			}
			return machine
		}
		if plain := run(vm.Config{}); plain.FastInstrs == 0 {
			t.Fatalf("%s: the program runs no fast instruction even without stats", pol.Name())
		}
		counted := run(vm.Config{CollectStats: true})
		control := run(vm.Config{CollectStats: true, NoFastPath: true})
		if counted.FastInstrs != 0 {
			t.Errorf("%s: a counting VM ran %d of %d instructions on the fast loop",
				pol.Name(), counted.FastInstrs, counted.Instrs)
		}
		if counted.Instrs != control.Instrs || counted.Calls != control.Calls || counted.Counters != control.Counters {
			t.Errorf("%s: counted run (instrs %d, calls %d, %v) differs from NoFastPath (instrs %d, calls %d, %v)",
				pol.Name(), counted.Instrs, counted.Calls, counted.Counters, control.Instrs, control.Calls, control.Counters)
		}
		if counted.Counters == (taint.Counters{}) {
			t.Errorf("%s: the program counted no propagation", pol.Name())
		}
	}
}
