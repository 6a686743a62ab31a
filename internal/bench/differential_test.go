package bench

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"tinman/internal/apps"
	"tinman/internal/taint"
	"tinman/internal/vm"
	"tinman/internal/vm/asm"
)

// The differential harness pins the linked interpreter (inline caches,
// interned literals, pooled frames) against the reference interpreter
// (Config.SlowPath: every symbol resolved through the original map lookups
// on every instruction). For every workload and every policy the two must
// agree on results, shadow tags, propagation counters, instruction and call
// counts, and the exact sequence of offload-trigger points. Heap object
// identity is NOT compared: literal interning legitimately changes how many
// untainted string objects exist, which is unobservable to programs (the
// ISA has no reference equality on strings).

// diffOutcome is everything about a run that the optimization must preserve.
type diffOutcome struct {
	stop     vm.StopReason
	err      string
	result   vm.Value
	instrs   uint64
	calls    uint64
	counters taint.Counters
	// triggers is the ordered (tag, event) list of offload-trigger points.
	triggers []string
	// tainted is the sorted multiset of tainted-object descriptors.
	tainted []string
}

func (o diffOutcome) summary() string {
	return fmt.Sprintf("stop=%v err=%q result={kind=%d int=%d tag=%v} instrs=%d calls=%d counters=%v triggers=%v tainted=%v",
		o.stop, o.err, o.result.Kind, o.result.Int, o.result.Tag, o.instrs, o.calls, o.counters, o.triggers, o.tainted)
}

func (o diffOutcome) equal(p diffOutcome) bool { return o.summary() == p.summary() }

// taintedObjects renders every object carrying any taint as a descriptor
// that ignores heap IDs (allocation order differs under interning).
func taintedObjects(h *vm.Heap) []string {
	var out []string
	for _, o := range h.Objects() {
		dirty := o.Tag != taint.None
		for i := range o.FieldTags {
			if o.FieldTags[i] != taint.None {
				dirty = true
			}
		}
		for i := range o.ElemTags {
			if o.ElemTags[i] != taint.None {
				dirty = true
			}
		}
		if !dirty {
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s tag=%v", o.Class.Name, o.Tag)
		switch {
		case o.IsStr:
			fmt.Fprintf(&b, " str=%q", o.Str)
		case o.IsArr:
			fmt.Fprintf(&b, " elems=%d", len(o.Elems))
			for i, t := range o.ElemTags {
				if t != taint.None {
					fmt.Fprintf(&b, " e%d=%v", i, t)
				}
			}
		default:
			for i, t := range o.FieldTags {
				if t != taint.None {
					fmt.Fprintf(&b, " f%d(%s)=%v", i, o.Class.Fields[i], t)
				}
			}
		}
		out = append(out, b.String())
	}
	sort.Strings(out)
	return out
}

// diffRun executes main(args) to completion on a fresh VM and captures the
// outcome. migrate controls the OnTaintedAccess verdict: false records the
// trigger and continues (pure tracking), true stops at the first trigger
// the way the device-side offload engine does. analyze enables the static
// taint pre-analysis fast path (vm/taintflow.go).
func diffRun(t *testing.T, prog *vm.Program, policy taint.Policy, slowPath, analyze, migrate bool,
	setup func(*vm.VM) (*vm.Thread, error)) diffOutcome {
	t.Helper()
	machine := vm.New(vm.Config{
		Program:      prog,
		Heap:         vm.NewHeap(1, 2),
		Policy:       policy,
		CollectStats: true,
		SlowPath:     slowPath,
		NoFastPath:   !analyze,
	})
	var out diffOutcome
	machine.Hooks.OnTaintedAccess = func(tag taint.Tag, ev taint.Event) bool {
		out.triggers = append(out.triggers, fmt.Sprintf("%v/%v", tag, ev))
		return migrate
	}
	th, err := setup(machine)
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	stop, err := th.Run()
	out.stop = stop
	if err != nil {
		out.err = err.Error()
	}
	if stop == vm.StopMigrateTaint {
		// The migrate stop contract: the top frame's PC points at the
		// triggering instruction so the peer re-executes it. Fold the
		// resume point into the outcome so both interpreters must agree.
		top := th.Top()
		out.err += fmt.Sprintf("[stopped at %s@%d]", top.Method.FullName(), top.PC)
	}
	out.result = th.Result
	out.instrs = machine.Instrs
	out.calls = machine.Calls
	out.counters = machine.Counters
	out.tainted = taintedObjects(machine.Heap)
	return out
}

// diffCompare runs a setup under every Fig 13 policy in all three
// interpreter configurations — the analyzed interpreter (pre-analysis fast
// path on), the linked interpreter (fully instrumented), and the reference
// interpreter (SlowPath) — and fails on the first divergence. The
// analyzed-vs-linked comparison is the partial-instrumentation soundness
// proof: running provably taint-free regions uninstrumented must leave
// results, tags, counters, instruction counts and migration stops
// bit-identical.
func diffCompare(t *testing.T, name string, prog *vm.Program, migrate bool,
	setup func(*vm.VM) (*vm.Thread, error)) {
	t.Helper()
	for _, pol := range Fig13Policies {
		analyzed := diffRun(t, prog, pol, false, true, migrate, setup)
		fast := diffRun(t, prog, pol, false, false, migrate, setup)
		slow := diffRun(t, prog, pol, true, false, migrate, setup)
		if !analyzed.equal(fast) {
			t.Errorf("%s under %s diverges:\n  analyzed: %s\n  linked:   %s",
				name, pol.Name(), analyzed.summary(), fast.summary())
		}
		if !fast.equal(slow) {
			t.Errorf("%s under %s diverges:\n  linked: %s\n  slow:   %s",
				name, pol.Name(), fast.summary(), slow.summary())
		}
	}
}

// TestDifferentialKernels runs every Caffeinemark kernel — with clean and
// with tainted arguments — through both interpreters under all policies.
func TestDifferentialKernels(t *testing.T) {
	prog, err := asm.Assemble("caffeinemark", caffeineSource)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range Kernels {
		k := k
		// Kernels are heavy at benchmark size; differential runs shrink the
		// work parameter — equivalence is per instruction, not per volume.
		arg := k.Arg / 64
		t.Run(k.Name, func(t *testing.T) {
			diffCompare(t, k.Name, prog, false, func(machine *vm.VM) (*vm.Thread, error) {
				return machine.NewThread(machine.Program.Method("Caffeine", k.Method), vm.IntVal(arg))
			})
		})
		t.Run(k.Name+"/tainted-arg", func(t *testing.T) {
			diffCompare(t, k.Name, prog, false, func(machine *vm.VM) (*vm.Thread, error) {
				a := vm.IntVal(arg)
				a.Tag = taint.Bit(3)
				return machine.NewThread(machine.Program.Method("Caffeine", k.Method), a)
			})
		})
	}
}

// appThread prepares a login(account, passwd, host) thread with a tainted
// password, the way the framework materializes a cor placeholder.
func appThread(spec apps.Spec) func(*vm.VM) (*vm.Thread, error) {
	return func(machine *vm.VM) (*vm.Thread, error) {
		machine.RegisterNative(&vm.NativeDef{
			Name:        "https_request",
			Offloadable: true,
			Fn: func(th *vm.Thread, args []vm.Value) (vm.Value, error) {
				return vm.RefVal(th.VM.NewString("HTTP/1.1 200 OK\r\n\r\nwelcome")), nil
			},
		})
		account := vm.RefVal(machine.NewString(spec.Account))
		passwd := vm.RefVal(machine.NewTaintedString(spec.Password, taint.Bit(1)))
		passwd.Tag = taint.Bit(1)
		host := vm.RefVal(machine.NewString(spec.Domain))
		return machine.NewThread(machine.Program.Method(spec.ClassName, "login"), account, passwd, host)
	}
}

// TestDifferentialApps runs every sample login app through both
// interpreters: once tracking-only (full trigger sequence) and once in
// migrate mode (stop at the first trigger, compare the resume point).
func TestDifferentialApps(t *testing.T) {
	for _, spec := range apps.LoginApps {
		spec := spec
		prog, err := asm.Assemble(spec.Name, spec.Source())
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		t.Run(spec.Name, func(t *testing.T) {
			diffCompare(t, spec.Name, prog, false, appThread(spec))
		})
		t.Run(spec.Name+"/migrate", func(t *testing.T) {
			diffCompare(t, spec.Name, prog, true, appThread(spec))
		})
	}
}

// TestDifferentialRepeatedRuns pins a second property of the caches: a
// warmed program (caches populated by a prior run) must behave identically
// to a cold one, including when the warming VM was a different VM instance
// (the per-VM caches must miss cleanly, not leak the other VM's objects).
func TestDifferentialRepeatedRuns(t *testing.T) {
	prog, err := asm.Assemble("caffeinemark", caffeineSource)
	if err != nil {
		t.Fatal(err)
	}
	k := Kernels[5] // String: exercises conststr interning hardest
	run := func() diffOutcome {
		return diffRun(t, prog, taint.Full, false, true, false, func(machine *vm.VM) (*vm.Thread, error) {
			return machine.NewThread(machine.Program.Method("Caffeine", k.Method), vm.IntVal(k.Arg/64))
		})
	}
	first := run()
	for i := 0; i < 3; i++ {
		again := run()
		if !first.equal(again) {
			t.Fatalf("warmed run %d diverges:\n  first: %s\n  again: %s", i, first.summary(), again.summary())
		}
	}
}

// leafSrc drives the fast loop's frame-free leaf call (vm quicken.go's
// leafShape): tiny, divc, unread, mixed and pass (which returns a moved
// argument) are leaves; divr (div by a register) and wide (17 registers,
// above the cap) are not. Each case runs
// through main, so the caller is a fast frame; recurse makes the leaf call
// at the frame limit.
const leafSrc = `
class L
  method tiny 1 5
    const r1, 3
    add r2, r0, r1
    mul r3, r2, r2
    xor r4, r3, r1
    return r4
  end
  method divc 1 5
    const r1, 7
    div r2, r0, r1
    rem r3, r0, r1
    const r4, -3
    div r4, r3, r4
    add r2, r2, r4
    return r2
  end
  method divr 2 3
    div r2, r0, r1
    return r2
  end
  method wide 1 17
    const r16, 5
    add r1, r0, r16
    return r1
  end
  method unread 1 4
    add r1, r2, r3
    add r1, r1, r0
    return r1
  end
  method mixed 2 9
    move r2, r0
    neg r3, r1
    not r4, r2
    cmp r5, r3, r4
    and r6, r2, r1
    or r6, r6, r5
    shl r7, r6, r1
    shr r8, r7, r5
    sub r8, r8, r3
    return r8
  end
  method pass 2 3
    move r2, r1
    add r1, r0, r2
    return r2
  end
  method main 2 8
    const r2, 0
    const r3, 0
  loop:
    ifge r3, r0, done
    invoke r4, L.tiny, r3
    add r2, r2, r4
    invoke r4, L.divc, r3
    add r2, r2, r4
    invoke r4, L.wide, r3
    add r2, r2, r4
    invoke r4, L.unread, r3
    add r2, r2, r4
    invoke r4, L.mixed, r3, r1
    add r2, r2, r4
    invoke r4, L.divr, r2, r1
    add r2, r2, r4
    invoke r4, L.pass, r3, r2
    add r2, r2, r4
    const r5, 1
    add r3, r3, r5
    goto loop
  done:
    return r2
  end
  method recurse 1 4
    ifz r0, leaf
    const r1, 1
    sub r2, r0, r1
    invoke r3, L.recurse, r2
    return r3
  leaf:
    invoke r3, L.tiny, r0
    return r3
  end
end`

// leafRun runs setup's thread with CollectStats off — the configuration
// in which the fast loop calls leaves without a frame — resuming after
// every StopLimit of a quantum-instruction budget (0: no limit), and
// renders everything the leaf path must preserve: the stop trace (method,
// pc and depth at each stop), result, error, instruction and call counts
// and, with hook set, every OnInvoke.
func leafRun(t *testing.T, prog *vm.Program, policy taint.Policy, slowPath, analyze, hook bool,
	quantum uint64, setup func(*vm.VM) (*vm.Thread, error)) string {
	t.Helper()
	machine := vm.New(vm.Config{
		Program: prog, Heap: vm.NewHeap(1, 2), Policy: policy,
		SlowPath: slowPath, NoFastPath: !analyze,
	})
	var b strings.Builder
	if hook {
		machine.Hooks.OnInvoke = func(m *vm.Method) { fmt.Fprintf(&b, "invoke %s; ", m.Name) }
	}
	th, err := setup(machine)
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	th.MaxInstrs = quantum
	for {
		stop, err := th.Run()
		if stop != vm.StopLimit || err != nil {
			fmt.Fprintf(&b, "stop=%v err=%v result={kind=%d int=%d tag=%v}", stop, err, th.Result.Kind, th.Result.Int, th.Result.Tag)
			break
		}
		top := th.Top()
		fmt.Fprintf(&b, "limit %s@%d/%d; ", top.Method.Name, top.PC, th.Depth())
	}
	fmt.Fprintf(&b, " instrs=%d calls=%d", machine.Instrs, machine.Calls)
	return b.String()
}

// TestDifferentialLeafCalls pins the frame-free leaf call to the framed
// path it replaces: with CollectStats off, the analyzed interpreter must
// match the linked and the reference interpreters bit for bit under every
// policy — when the budget ends inside a leaf (it must stop on the same
// instruction), with OnInvoke set, for callees that are not leaves (div by
// a register, including by zero; registers above the cap), for a leaf
// reading registers it never wrote, and for a leaf call at the frame
// limit (the same stack-overflow error). CollectStats on goes through the
// three-way harness, counters included.
func TestDifferentialLeafCalls(t *testing.T) {
	prog, err := asm.Assemble("leaf", leafSrc)
	if err != nil {
		t.Fatal(err)
	}
	thread := func(method string, args ...int64) func(*vm.VM) (*vm.Thread, error) {
		return func(machine *vm.VM) (*vm.Thread, error) {
			vals := make([]vm.Value, len(args))
			for i, a := range args {
				vals[i] = vm.IntVal(a)
			}
			return machine.NewThread(machine.Program.Method("L", method), vals...)
		}
	}
	cases := []struct {
		name  string
		setup func(*vm.VM) (*vm.Thread, error)
	}{
		{"main", thread("main", 9, 3)},
		{"main/div-by-zero", thread("main", 4, 0)},
		{"recurse/below-limit", thread("recurse", 1022)},
		{"recurse/at-limit", thread("recurse", 1023)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			diffCompare(t, c.name, prog, false, c.setup)
			for _, pol := range Fig13Policies {
				for _, hook := range []bool{false, true} {
					for _, quantum := range []uint64{0, 1, 2, 3, 4, 5, 6, 7, 11, 13} {
						analyzed := leafRun(t, prog, pol, false, true, hook, quantum, c.setup)
						linked := leafRun(t, prog, pol, false, false, hook, quantum, c.setup)
						slow := leafRun(t, prog, pol, true, false, hook, quantum, c.setup)
						if analyzed != linked || linked != slow {
							t.Fatalf("%s hook=%v quantum=%d diverges:\n  analyzed: %s\n  linked:   %s\n  slow:     %s",
								pol.Name(), hook, quantum, analyzed, linked, slow)
						}
					}
				}
			}
		})
	}
}
