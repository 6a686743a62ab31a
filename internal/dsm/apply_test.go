package dsm_test

import (
	"fmt"
	"strings"
	"testing"

	"tinman/internal/apps"
	"tinman/internal/dsm"
	"tinman/internal/taint"
	"tinman/internal/vm"
	"tinman/internal/vm/asm"
)

// loginProgram assembles the paypal login app, whose Work class holds the
// busy-loop helpers every login app shares.
func loginProgram(tb testing.TB) *vm.Program {
	tb.Helper()
	spec := apps.LoginApps[0]
	prog, err := asm.Assemble(spec.Name, spec.Source())
	if err != nil {
		tb.Fatal(err)
	}
	return prog
}

// anyCor resolves every cor a migration names to one 8-byte plaintext,
// the length of the placeholder in the captured seed; like the node's
// vault, it ignores the length the wire claims, which ApplyMigration then
// checks.
type anyCor struct{}

func (anyCor) Fill(string, int) (string, taint.Tag, bool) {
	return "hunter2!", taint.Bit(1), true
}

func (anyCor) MaskID(*vm.Object) string { return "" }

// nodeEndpoint is a trusted-node endpoint over prog: full tainting and a
// cor-idle window, as node.Service hosts an app.
func nodeEndpoint(prog *vm.Program) *dsm.Endpoint {
	machine := vm.New(vm.Config{Program: prog, Heap: vm.NewHeap(2, 2), Policy: taint.Full, CorIdleWindow: 5000})
	return dsm.NewEndpoint(dsm.NodeSide, machine, anyCor{})
}

// frame is a FrameState of Work.<method> with n zero int registers.
func frame(method string, pc, retReg, n int) dsm.FrameState {
	regs := make([]dsm.ValueState, n)
	for i := range regs {
		regs[i].Kind = uint8(vm.KindInt)
	}
	return dsm.FrameState{Class: "Work", Method: method, PC: pc, RetReg: retReg, Regs: regs}
}

// unrunnableStacks are migrations whose stacks the interpreter cannot run.
// Before the admission check the first two panicked in Thread.Run: a
// Work.tiny frame without registers (index out of range [1] with length
// 0), and a Work.tiny frame returning into r99 of its 6-register caller
// (index out of range [99] with length 6).
func unrunnableStacks() map[string]*dsm.Migration {
	mig := func(frames ...dsm.FrameState) *dsm.Migration {
		return &dsm.Migration{Seq: 1, Reason: vm.StopMigrateTaint, Frames: frames,
			Result:  dsm.ValueState{Kind: uint8(vm.KindRef)},
			Objects: []dsm.ObjectState{{ID: 2, Class: "java/lang/String", IsStr: true, Str: "s", StrLen: 1}}}
	}
	deep := make([]dsm.FrameState, 1025)
	for i := range deep {
		deep[i] = frame("workLoop", 3, 2, 6)
	}
	return map[string]*dsm.Migration{
		"tiny-without-registers": mig(frame("tiny", 0, 0, 0)),
		"ret-reg-99":             mig(frame("workLoop", 3, 0, 6), frame("tiny", 0, 99, 5)),
		"pc-at-end":              mig(frame("tiny", 5, 0, 5)),
		"deeper-than-limit":      mig(deep...),
	}
}

// TestApplyRefusesUnrunnableStacks pins the DSM frame admission rule
// (vm.CheckStack): a register count other than the method's, a RetReg
// outside the caller's registers, a PC not below len(Code), and a stack
// deeper than the interpreter's frame limit are refused at apply, before
// the node would run them.
func TestApplyRefusesUnrunnableStacks(t *testing.T) {
	prog := loginProgram(t)
	for name, m := range unrunnableStacks() {
		decoded, err := dsm.DecodeMigration(m.Encode())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ep := nodeEndpoint(prog)
		th, err := ep.ApplyMigration(decoded)
		if err == nil {
			th.MaxInstrs = 10_000
			stop, runErr := th.Run()
			t.Errorf("%s: stack admitted (ran to %v, %v)", name, stop, runErr)
			continue
		}
		if !strings.Contains(err.Error(), "migrated stack refused") {
			t.Errorf("%s: %v", name, err)
		}
		if n := len(ep.VM.Heap.Objects()); n != 0 {
			t.Errorf("%s: refused migration still adopted %d objects", name, n)
		}
	}
	// The same shapes pass when well formed.
	ok := &dsm.Migration{Seq: 1, Reason: vm.StopMigrateTaint, Result: dsm.ValueState{Kind: uint8(vm.KindRef)},
		Frames: []dsm.FrameState{frame("workLoop", 3, 0, 6), frame("tiny", 0, 2, 5)}}
	th, err := nodeEndpoint(prog).ApplyMigration(ok)
	if err != nil {
		t.Fatal(err)
	}
	if stop, err := th.Run(); err != nil || stop != vm.StopDone {
		t.Fatalf("well-formed stack: %v, %v", stop, err)
	}
}

// TestApplyRefusesMisshapenObjects covers the heap shapes that could
// crash the node: an object with ID 0 (the wire's null, which Heap.Adopt
// panics on), an instance carrying fewer fields than its class (iget
// indexes by the class's slot), and an object sent twice in one migration
// as arrays of different lengths, whose second fill read the first's
// shadow tags past their end.
func TestApplyRefusesMisshapenObjects(t *testing.T) {
	prog, err := asm.Assemble("acct", `
class Acct
  field a
  field b
  method get 1 3
    iget r1, r0, b
    return r1
  end
end`)
	if err != nil {
		t.Fatal(err)
	}
	null := &dsm.Migration{Seq: 1, Result: dsm.ValueState{Kind: uint8(vm.KindRef)},
		Objects: []dsm.ObjectState{{ID: 0, Class: "java/lang/String", IsStr: true}}}
	if _, err := nodeEndpoint(prog).ApplyMigration(null); err == nil {
		t.Fatal("object without an ID admitted")
	}

	short := &dsm.Migration{Seq: 1, Reason: vm.StopMigrateTaint, Result: dsm.ValueState{Kind: uint8(vm.KindRef)},
		Objects: []dsm.ObjectState{{ID: 2, Class: "Acct"}},
		Frames: []dsm.FrameState{{Class: "Acct", Method: "get", Regs: []dsm.ValueState{
			{Kind: uint8(vm.KindRef), RefID: 2}, {Kind: uint8(vm.KindInt)}, {Kind: uint8(vm.KindInt)}}}}}
	if th, err := nodeEndpoint(prog).ApplyMigration(short); err == nil {
		stop, runErr := th.Run()
		t.Fatalf("instance without its fields admitted (ran to %v, %v)", stop, runErr)
	}

	arr := func(n int) dsm.ObjectState {
		el := make([]dsm.ValueState, n)
		for i := range el {
			el[i] = dsm.ValueState{Kind: uint8(vm.KindInt), Int: 1, Tag: 1}
		}
		return dsm.ObjectState{ID: 4, Class: "java/lang/Array", IsArr: true, Elems: el}
	}
	reshaped := &dsm.Migration{Seq: 1, Result: dsm.ValueState{Kind: uint8(vm.KindRef)},
		Objects: []dsm.ObjectState{arr(1), arr(3)}}
	ep := nodeEndpoint(prog)
	if _, err := ep.ApplyMigration(reshaped); err != nil {
		t.Fatal(err)
	}
	if o := ep.VM.Heap.Get(4); len(o.Elems) != 3 || o.ElemTag(2) != taint.Bit(0) {
		t.Fatalf("reshaped array: %d elems, tag %v", len(o.Elems), o.ElemTag(2))
	}
}

// knownCor resolves only the cor "pw", as the node's vault resolves only
// registered cors.
type knownCor struct{}

func (knownCor) Fill(id string, _ int) (string, taint.Tag, bool) {
	return "hunter2!", taint.Bit(1), id == "pw"
}

func (knownCor) MaskID(*vm.Object) string { return "" }

// TestRefusedPayloadAdoptsNothing sends a migration and a final warm-up
// chunk that each carry a valid string object followed by one the node
// refuses — an object of an unknown class, a string naming an unknown cor,
// or an array whose element points at an object neither the payload nor
// the heap holds. Each payload must be refused whole: the heap keeps its
// object count.
func TestRefusedPayloadAdoptsNothing(t *testing.T) {
	prog := loginProgram(t)
	valid := dsm.ObjectState{ID: 2, Class: "java/lang/String", IsStr: true, Str: "user=alice"}
	for name, bad := range map[string]dsm.ObjectState{
		"unknown class": {ID: 4, Class: "NoSuchClass"},
		"unknown cor":   {ID: 4, Class: "java/lang/String", IsStr: true, CorID: "no-such-cor", StrLen: 8},
		"dangling reference": {ID: 4, Class: "java/lang/Array", IsArr: true,
			Elems: []dsm.ValueState{{Kind: uint8(vm.KindRef), RefID: 2}, {Kind: uint8(vm.KindRef), RefID: 99}}},
	} {
		objs := []dsm.ObjectState{valid, bad}
		apply := map[string]func(*dsm.Endpoint) error{
			"migration": func(ep *dsm.Endpoint) error {
				_, err := ep.ApplyMigration(&dsm.Migration{Seq: 1, Objects: objs})
				return err
			},
			"warm-up": func(ep *dsm.Endpoint) error {
				return ep.ApplyWarmupChunk(&dsm.WarmupChunk{Epoch: 1, Final: true, Objects: objs})
			},
		}
		for path, fn := range apply {
			machine := vm.New(vm.Config{Program: prog, Heap: vm.NewHeap(2, 2), Policy: taint.Full})
			ep := dsm.NewEndpoint(dsm.NodeSide, machine, knownCor{})
			before := machine.Heap.Len()
			if err := fn(ep); err == nil {
				t.Fatalf("%s with %s admitted", path, name)
			}
			if got := machine.Heap.Len(); got != before {
				t.Fatalf("refused %s with %s left %d objects adopted", path, name, got-before)
			}
		}
	}
}

// residentState is what a node heap holds from an earlier sync before a
// peer's migration arrives: a device-allocated (odd ID) string and an
// array whose element points at it.
func residentState() *dsm.Migration {
	return &dsm.Migration{Seq: 1, Objects: []dsm.ObjectState{
		{ID: 1, Class: "java/lang/String", IsStr: true, Str: "user=alice", StrLen: 10, Tag: 2},
		{ID: 3, Class: "java/lang/Array", IsArr: true, Elems: []dsm.ValueState{
			{Kind: uint8(vm.KindRef), RefID: 1, Tag: 2}, {Kind: uint8(vm.KindInt), Int: 7}}},
	}}
}

// heapState renders every object of h, references by ID, so two
// renderings are equal exactly when the heaps hold the same state.
func heapState(h *vm.Heap) string {
	val := func(v vm.Value) string {
		id := uint64(0)
		if v.Ref != nil {
			id = v.Ref.ID
		}
		return fmt.Sprintf("%d:%d:#%d:%d", v.Kind, v.Int, id, v.Tag)
	}
	var b strings.Builder
	for _, o := range h.Objects() {
		fmt.Fprintf(&b, "#%d %s tag=%d v=%d arr=%t str=%t %q cor=%q", o.ID, o.Class.Name, o.Tag, o.Version, o.IsArr, o.IsStr, o.Str, o.CorID)
		for i, v := range o.Elems {
			fmt.Fprintf(&b, " e%s/%d", val(v), o.ElemTag(i))
		}
		for i, v := range o.Fields {
			fmt.Fprintf(&b, " f%s/%d", val(v), o.FieldTag(i))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FuzzApplyMigration hardens the whole path a peer's migration takes on
// the trusted node: decode, apply to a node-side endpoint over a login
// app's program, and run the rebuilt thread on a small budget. Any input
// must end in an error or a stop, never a panic. The checked-in corpus
// (testdata/fuzz/FuzzApplyMigration) seeds the two stacks that used to
// crash Thread.Run and a migration captured at a real login's offload
// trigger. Explore with
// `go test -run NONE -fuzz FuzzApplyMigration -fuzztime 2m ./internal/dsm/`.
func FuzzApplyMigration(f *testing.F) {
	prog := loginProgram(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := dsm.DecodeMigration(data)
		if err != nil {
			return
		}
		ep := nodeEndpoint(prog)
		if _, err := ep.ApplyMigration(residentState()); err != nil {
			t.Fatal(err)
		}
		before := heapState(ep.VM.Heap)
		th, err := ep.ApplyMigration(m)
		if err != nil {
			// A refused payload leaves the heap as it was.
			if after := heapState(ep.VM.Heap); after != before {
				t.Fatalf("refused migration (%v) changed the heap:\n%s\nwas:\n%s", err, after, before)
			}
			return
		}
		if th == nil {
			return
		}
		th.MaxInstrs = 2000
		th.Run()
	})
}

// TestDanglingReferenceAcrossChunksRefused: the references of a warm-up
// epoch resolve against every chunk of the epoch — an element pointing
// into a later chunk is adopted — and a migration whose frame register
// points at an object nobody holds is refused before its objects are
// adopted.
func TestDanglingReferenceAcrossChunksRefused(t *testing.T) {
	prog := loginProgram(t)
	ep := nodeEndpoint(prog)
	arr := dsm.ObjectState{ID: 4, Class: "java/lang/Array", IsArr: true,
		Elems: []dsm.ValueState{{Kind: uint8(vm.KindRef), RefID: 6}}}
	str := dsm.ObjectState{ID: 6, Class: "java/lang/String", IsStr: true, Str: "later", StrLen: 5}
	if err := ep.ApplyWarmupChunk(&dsm.WarmupChunk{Epoch: 1, Index: 0, Objects: []dsm.ObjectState{arr}}); err != nil {
		t.Fatal(err)
	}
	if err := ep.ApplyWarmupChunk(&dsm.WarmupChunk{Epoch: 1, Index: 1, Final: true, Objects: []dsm.ObjectState{str}}); err != nil {
		t.Fatal(err)
	}
	if o := ep.VM.Heap.Get(4); o == nil || o.Elems[0].Ref != ep.VM.Heap.Get(6) {
		t.Fatal("reference into a later chunk not resolved")
	}

	ep = nodeEndpoint(prog)
	fr := frame("tiny", 0, 0, 5)
	fr.Regs[0] = dsm.ValueState{Kind: uint8(vm.KindRef), RefID: 99}
	m := &dsm.Migration{Seq: 1, Reason: vm.StopMigrateTaint, Result: dsm.ValueState{Kind: uint8(vm.KindRef)},
		Frames: []dsm.FrameState{fr}, Objects: []dsm.ObjectState{str}}
	if _, err := ep.ApplyMigration(m); err == nil {
		t.Fatal("frame register pointing at #99 admitted")
	}
	if n := ep.VM.Heap.Len(); n != 0 {
		t.Fatalf("refused migration adopted %d objects", n)
	}
}

// TestApplyOwnSpaceIDMovesAllocator sends the node an object whose ID lies
// in the node's own (even) ID space, as a full re-sync to a fresh node VM
// does after a handoff. The node must adopt it and allocate past it; an
// own-space ID from vm.MaxOwnAdoptID up, which could run the allocator out
// of room, is refused before anything is adopted.
func TestApplyOwnSpaceIDMovesAllocator(t *testing.T) {
	prog := loginProgram(t)
	ep := nodeEndpoint(prog)
	str := func(id uint64) *dsm.Migration {
		return &dsm.Migration{Seq: 1, Result: dsm.ValueState{Kind: uint8(vm.KindRef)},
			Objects: []dsm.ObjectState{{ID: id, Class: "java/lang/String", IsStr: true, Str: "peer", StrLen: 4}}}
	}
	if _, err := ep.ApplyMigration(str(2)); err != nil {
		t.Fatalf("own-space ID refused: %v", err)
	}
	if o := ep.VM.NewString("local"); o.ID != 4 {
		t.Fatalf("allocation after adopting #2 took ID %d, want 4", o.ID)
	}
	top := nodeEndpoint(prog)
	if _, err := top.ApplyMigration(str(vm.MaxOwnAdoptID)); err == nil {
		t.Fatal("an ID the allocator cannot move past was admitted")
	}
	if n := top.VM.Heap.Len(); n != 0 {
		t.Fatalf("refused payload adopted %d objects", n)
	}
}
