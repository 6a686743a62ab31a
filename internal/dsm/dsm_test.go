package dsm

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"tinman/internal/cor"
	"tinman/internal/taint"
	"tinman/internal/vm"
	"tinman/internal/vm/asm"
)

// --- test resolvers ---

// nodeResolver serves plaintext from a cor store and mints derived cors for
// freshly tainted strings.
type nodeResolver struct {
	store   *cor.Store
	derived int
}

func (r *nodeResolver) Fill(id string, length int) (string, taint.Tag, bool) {
	if rec := r.store.Get(id); rec != nil {
		return rec.Plaintext, rec.Tag(), true
	}
	return "", taint.None, false
}

func (r *nodeResolver) MaskID(o *vm.Object) string {
	parents := r.store.ByTag(o.Tag)
	if len(parents) == 0 {
		return ""
	}
	r.derived++
	id := fmt.Sprintf("derived-%s-%d", parents[0].ID, r.derived)
	if _, err := r.store.Derive(parents[0].ID, id, o.Str); err != nil {
		return ""
	}
	return id
}

// deviceResolver serves placeholders only; it can synthesize placeholders
// for derived cors it has never seen, but can never mint cor IDs itself.
type deviceResolver struct {
	views map[string]cor.DeviceView
}

func newDeviceResolver(store *cor.Store) *deviceResolver {
	d := &deviceResolver{views: make(map[string]cor.DeviceView)}
	for _, v := range store.DeviceViews() {
		d.views[v.ID] = v
	}
	return d
}

func (r *deviceResolver) Fill(id string, length int) (string, taint.Tag, bool) {
	if v, ok := r.views[id]; ok {
		return v.Placeholder, taint.Bit(v.Bit), true
	}
	// A derived cor minted on the node: same-length deterministic dummy.
	return cor.Placeholder(id, length), taint.None, true
}

func (r *deviceResolver) MaskID(o *vm.Object) string { return "" }

// --- wire codec tests ---

func TestMigrationEncodeDecodeRoundTrip(t *testing.T) {
	m := &Migration{
		Seq:     7,
		Reason:  vm.StopMigrateTaint,
		Initial: true,
		Result:  ValueState{Kind: uint8(vm.KindInt), Int: -42, Tag: 3},
		Frames: []FrameState{{
			Class: "Bank", Method: "login", PC: 12, RetReg: 3,
			Regs: []ValueState{
				{Kind: uint8(vm.KindInt), Int: 99},
				{Kind: uint8(vm.KindFloat), Int: vm.FloatVal(2.5).Int},
				{Kind: uint8(vm.KindRef), RefID: 41},
				{Kind: uint8(vm.KindInt), Masked: true, Tag: 1},
			},
		}},
		Objects: []ObjectState{
			{ID: 41, Class: "java/lang/String", IsStr: true, Str: "hello", StrLen: 5, Version: 2},
			{ID: 43, Class: "java/lang/String", IsStr: true, CorID: "pw", StrLen: 8, Tag: 1, Version: 1},
			{ID: 45, Class: "Acct", Fields: []ValueState{{Kind: uint8(vm.KindInt), Int: 5}}},
			{ID: 47, Class: "java/lang/Array", IsArr: true, Elems: []ValueState{{Kind: uint8(vm.KindRef), RefID: 41}}},
		},
	}
	buf := m.Encode()
	got, err := DecodeMigration(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 7 || got.Reason != vm.StopMigrateTaint || !got.Initial {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Frames) != 1 || got.Frames[0].PC != 12 || len(got.Frames[0].Regs) != 4 {
		t.Fatalf("frames mismatch: %+v", got.Frames)
	}
	if f := got.Frames[0].Regs[1]; f.Int != vm.FloatVal(2.5).Int {
		t.Fatalf("float reg lost: %+v", f)
	}
	if !got.Frames[0].Regs[3].Masked || got.Frames[0].Regs[3].Tag != 1 {
		t.Fatalf("masked reg lost: %+v", got.Frames[0].Regs[3])
	}
	if len(got.Objects) != 4 {
		t.Fatalf("objects = %d", len(got.Objects))
	}
	if got.Objects[0].Str != "hello" {
		t.Fatalf("plain string content lost")
	}
	if got.Objects[1].Str != "" || got.Objects[1].CorID != "pw" || got.Objects[1].StrLen != 8 {
		t.Fatalf("cor object must carry no content: %+v", got.Objects[1])
	}
	if got.Result.Int != -42 {
		t.Fatalf("result = %+v", got.Result)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{99},                                  // wrong version
		{1, 1, 0, 0},                          // truncated
		append((&Migration{}).Encode(), 0xFF), // trailing bytes
	}
	for i, buf := range cases {
		if _, err := DecodeMigration(buf); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

// Property: encode/decode is the identity on headers and object counts for
// arbitrary small migrations.
func TestCodecRoundTripProperty(t *testing.T) {
	prop := func(seq uint16, nObjs uint8, strContent string) bool {
		m := &Migration{Seq: uint64(seq), Result: ValueState{Kind: uint8(vm.KindRef)}}
		for i := 0; i < int(nObjs%8); i++ {
			m.Objects = append(m.Objects, ObjectState{
				ID: uint64(i + 1), Class: "C", IsStr: true,
				Str: strContent, StrLen: len(strContent),
			})
		}
		got, err := DecodeMigration(m.Encode())
		if err != nil {
			return false
		}
		if got.Seq != uint64(seq) || len(got.Objects) != len(m.Objects) {
			return false
		}
		for i := range got.Objects {
			if got.Objects[i].Str != strContent {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// --- endpoint pair tests ---

// bankSrc: the paper's running example — hash the password, build the
// request string (fig 5 / fig 11).
const bankSrc = `
class Bank
  method login 2 8          ; r0 = account, r1 = passwd
    hash r2, r1             ; tainted heap->heap: offload trigger on device
    conststr r3, "user="
    strcat r4, r3, r0
    conststr r5, "&hash="
    strcat r6, r4, r5
    strcat r7, r6, r2
    return r7
  end
end`

type pair struct {
	store    *cor.Store
	devVM    *vm.VM
	nodeVM   *vm.VM
	dev      *Endpoint
	node     *Endpoint
	prog     *vm.Program
	nodeProg *vm.Program
}

func newPair(t *testing.T, src string) *pair {
	t.Helper()
	devProg, err := asm.Assemble("bank", src)
	if err != nil {
		t.Fatal(err)
	}
	nodeProg, err := asm.Assemble("bank", src)
	if err != nil {
		t.Fatal(err)
	}
	store := cor.NewStore()
	if _, err := store.Register("pw", "hunter2!", "bank password"); err != nil {
		t.Fatal(err)
	}
	devVM := vm.New(vm.Config{Program: devProg, Heap: vm.NewHeap(1, 2), Policy: taint.Asymmetric})
	nodeVM := vm.New(vm.Config{Program: nodeProg, Heap: vm.NewHeap(2, 2), Policy: taint.Full})
	p := &pair{
		store:  store,
		devVM:  devVM,
		nodeVM: nodeVM,
		dev:    NewEndpoint(DeviceSide, devVM, newDeviceResolver(store)),
		node:   NewEndpoint(NodeSide, nodeVM, &nodeResolver{store: store}),
		prog:   devProg, nodeProg: nodeProg,
	}
	return p
}

// ship encodes on one side and applies on the other, mimicking the network.
func ship(t *testing.T, from, to *Endpoint, th *vm.Thread, reason vm.StopReason) (*vm.Thread, *Migration) {
	t.Helper()
	m, err := from.CaptureMigration(th, reason)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	decoded, err := DecodeMigration(m.Encode())
	if err != nil {
		t.Fatalf("wire: %v", err)
	}
	out, err := to.ApplyMigration(decoded)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	return out, decoded
}

func TestFullOffloadRoundTrip(t *testing.T) {
	p := newPair(t, bankSrc)
	rec := p.store.Get("pw")

	// Device materializes the tainted placeholder (widget selection, §4.1).
	placeholder := p.devVM.NewTaintedString(rec.Placeholder, rec.Tag())
	placeholder.CorID = rec.ID
	account := p.devVM.NewString("alice")

	p.devVM.Hooks.OnTaintedAccess = func(tag taint.Tag, ev taint.Event) bool { return true }
	th, err := p.devVM.NewThread(p.prog.Method("Bank", "login"), vm.RefVal(account), vm.RefVal(placeholder))
	if err != nil {
		t.Fatal(err)
	}

	// 1. Device runs until the hash touches the placeholder.
	stop, err := th.Run()
	if err != nil || stop != vm.StopMigrateTaint {
		t.Fatalf("device run: stop=%v err=%v", stop, err)
	}

	// 2. Migrate device -> node; node resumes with real plaintext.
	nodeTh, _ := ship(t, p.dev, p.node, th, stop)
	if nodeTh == nil {
		t.Fatal("no thread arrived at node")
	}
	// The node heap must hold the plaintext where the device held the
	// placeholder.
	nodePw := p.nodeVM.Heap.Get(placeholder.ID)
	if nodePw == nil || nodePw.Str != "hunter2!" {
		t.Fatalf("node sees %q, want plaintext", nodePw.Str)
	}

	stop, err = nodeTh.Run()
	if err != nil || stop != vm.StopDone {
		t.Fatalf("node run: stop=%v err=%v", stop, err)
	}
	request := nodeTh.Result.Ref
	if !strings.Contains(request.Str, "user=alice&hash=") {
		t.Fatalf("request = %q", request.Str)
	}
	if request.Tag.Empty() {
		t.Fatal("request must be tainted on the node (derived cor)")
	}

	// 3. Migrate result back; the device receives a placeholder, never the
	// tainted content.
	_, back := ship(t, p.node, p.dev, nodeTh, vm.StopDone)
	devReq := p.devVM.Heap.Get(request.ID)
	if devReq == nil {
		t.Fatal("request object did not sync back")
	}
	if devReq.Str == request.Str {
		t.Fatal("SECURITY: tainted request content leaked to the device")
	}
	if len(devReq.Str) != len(request.Str) {
		t.Fatalf("placeholder length %d != content length %d", len(devReq.Str), len(request.Str))
	}
	if devReq.CorID == "" || !strings.HasPrefix(devReq.CorID, "derived-pw") {
		t.Fatalf("derived cor id = %q", devReq.CorID)
	}
	res, err := p.dev.DecodeResult(back)
	if err != nil || res.Ref != devReq {
		t.Fatalf("result decode: %v %v", res, err)
	}

	// No plaintext anywhere on the device heap (the paper's §5.1 claim).
	for _, o := range p.devVM.Heap.Objects() {
		if o.IsStr && strings.Contains(o.Str, "hunter2") {
			t.Fatalf("SECURITY: plaintext found on device heap in object #%d", o.ID)
		}
	}
}

func TestInitialSyncThenDirtyOnly(t *testing.T) {
	p := newPair(t, bankSrc)
	// Fill the device heap with framework objects.
	for i := 0; i < 50; i++ {
		p.devVM.NewString(strings.Repeat("x", 100))
	}
	m1, err := p.dev.CaptureMigration(nil, vm.StopMigrateTaint)
	if err != nil {
		t.Fatal(err)
	}
	if !m1.Initial || len(m1.Objects) != 50 {
		t.Fatalf("first sync: initial=%v objects=%d", m1.Initial, len(m1.Objects))
	}
	if _, err := p.node.ApplyMigration(m1); err != nil {
		t.Fatal(err)
	}

	// Touch one object; the next sync ships only it.
	objs := p.devVM.Heap.Objects()
	objs[3].Str = "changed"
	p.devVM.Heap.MarkDirty(objs[3])
	m2, err := p.dev.CaptureMigration(nil, vm.StopMigrateTaint)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Initial || len(m2.Objects) != 1 {
		t.Fatalf("second sync: initial=%v objects=%d, want dirty-only", m2.Initial, len(m2.Objects))
	}
	if p.dev.Stats.Syncs != 2 || p.dev.Stats.InitBytes == 0 || p.dev.Stats.DirtyBytes == 0 {
		t.Fatalf("stats = %+v", p.dev.Stats)
	}
	if p.dev.Stats.InitBytes < 50*p.dev.Stats.DirtyBytes/2 {
		t.Fatalf("init sync (%dB) should dwarf dirty sync (%dB)", p.dev.Stats.InitBytes, p.dev.Stats.DirtyBytes)
	}
}

func TestApplyDoesNotEchoDirty(t *testing.T) {
	p := newPair(t, bankSrc)
	p.devVM.NewString("hello")
	m, _ := p.dev.CaptureMigration(nil, vm.StopMigrateTaint)
	if _, err := p.node.ApplyMigration(m); err != nil {
		t.Fatal(err)
	}
	if p.nodeVM.Heap.DirtyCount() != 0 {
		t.Fatal("applied objects must not be considered locally dirty (echo loop)")
	}
}

func TestMaskedPrimitiveKeepsNodeValue(t *testing.T) {
	p := newPair(t, bankSrc)
	// Warm both sides.
	m, _ := p.dev.CaptureMigration(nil, vm.StopMigrateTaint)
	p.node.ApplyMigration(m)
	m, _ = p.node.CaptureMigration(nil, vm.StopMigrateTaint)
	p.dev.ApplyMigration(m)

	// The node holds an object with a tainted primitive field (e.g. a char
	// of the password read into a field).
	cls := p.nodeVM.Program.Class("Bank")
	_ = cls
	holder := p.nodeVM.Heap.AllocArray(p.nodeVM.ArrayClass(), 1)
	holder.Elems[0] = vm.IntVal(0x68) // 'h'
	holder.SetElemTag(0, taint.Bit(0))
	p.nodeVM.Heap.MarkDirty(holder)

	m, err := p.node.CaptureMigration(nil, vm.StopMigrateIdle)
	if err != nil {
		t.Fatal(err)
	}
	decoded, _ := DecodeMigration(m.Encode())
	if _, err := p.dev.ApplyMigration(decoded); err != nil {
		t.Fatal(err)
	}
	devHolder := p.devVM.Heap.Get(holder.ID)
	if devHolder.Elems[0].Int == 0x68 {
		t.Fatal("SECURITY: tainted primitive datum leaked to the device")
	}
	if devHolder.ElemTag(0).Empty() {
		t.Fatal("masked primitive must keep its tag on the device")
	}

	// Round-trip back: the masked (zero) device copy must not clobber the
	// node's authoritative value.
	p.devVM.Heap.MarkDirty(devHolder)
	m2, _ := p.dev.CaptureMigration(nil, vm.StopMigrateTaint)
	decoded2, _ := DecodeMigration(m2.Encode())
	if _, err := p.node.ApplyMigration(decoded2); err != nil {
		t.Fatal(err)
	}
	if got := p.nodeVM.Heap.Get(holder.ID).Elems[0].Int; got != 0x68 {
		t.Fatalf("node value clobbered by device echo: %#x", got)
	}
}

func TestDeviceCannotMaskUnknownTaintedString(t *testing.T) {
	p := newPair(t, bankSrc)
	// A tainted string with no cor ID on the *device* is a protocol
	// violation (it can only arise if the asymmetric policy was bypassed).
	s := p.devVM.NewTaintedString("mystery", taint.Bit(9))
	_ = s
	if _, err := p.dev.CaptureMigration(nil, vm.StopMigrateTaint); err == nil {
		t.Fatal("expected masking error for tainted string with no cor ID on device")
	}
}

func TestUnknownCorRejectedOnApply(t *testing.T) {
	p := newPair(t, bankSrc)
	m := &Migration{
		Seq: 1, Reason: vm.StopMigrateTaint, Initial: true,
		Result: ValueState{Kind: uint8(vm.KindRef)},
		Objects: []ObjectState{{
			ID: 1, Class: "java/lang/String", IsStr: true, CorID: "no-such-cor", StrLen: 5, Tag: 1,
		}},
	}
	if _, err := p.node.ApplyMigration(m); err == nil || !strings.Contains(err.Error(), "unknown cor") {
		t.Fatalf("err = %v, want unknown cor", err)
	}
}

func TestUnknownMethodRejected(t *testing.T) {
	p := newPair(t, bankSrc)
	m := &Migration{
		Seq: 1, Reason: vm.StopMigrateTaint,
		Result: ValueState{Kind: uint8(vm.KindRef)},
		Frames: []FrameState{{Class: "Nope", Method: "x", PC: 0}},
	}
	if _, err := p.node.ApplyMigration(m); err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownReferenceRejected(t *testing.T) {
	p := newPair(t, bankSrc)
	// A well-formed frame of Bank.login (8 registers) whose r0 names an
	// object the node never saw.
	regs := make([]ValueState, p.nodeProg.Method("Bank", "login").NRegs)
	regs[0] = ValueState{Kind: uint8(vm.KindRef), RefID: 9999}
	m := &Migration{
		Seq: 1, Reason: vm.StopMigrateTaint,
		Result: ValueState{Kind: uint8(vm.KindRef)},
		Frames: []FrameState{{Class: "Bank", Method: "login", PC: 0, Regs: regs}},
	}
	if _, err := p.node.ApplyMigration(m); err == nil || !strings.Contains(err.Error(), "unknown object") {
		t.Fatalf("err = %v", err)
	}
}

func TestCorLengthMismatchRejected(t *testing.T) {
	p := newPair(t, bankSrc)
	m := &Migration{
		Seq: 1, Reason: vm.StopMigrateTaint, Initial: true,
		Result: ValueState{Kind: uint8(vm.KindRef)},
		Objects: []ObjectState{{
			ID: 1, Class: "java/lang/String", IsStr: true, CorID: "pw", StrLen: 3, Tag: 1,
		}},
	}
	if _, err := p.node.ApplyMigration(m); err == nil || !strings.Contains(err.Error(), "length mismatch") {
		t.Fatalf("err = %v", err)
	}
}

func TestLockTable(t *testing.T) {
	lt := NewLockTable()
	if !lt.Acquire(1, DeviceSide) {
		t.Fatal("first acquire should succeed")
	}
	if lt.Acquire(1, NodeSide) {
		t.Fatal("acquire from other side should fail (forces migration)")
	}
	lt.Release(1)
	if lt.Acquire(1, NodeSide) {
		t.Fatal("home side persists across release")
	}
	lt.MoveHome(1, NodeSide)
	if !lt.Acquire(1, NodeSide) {
		t.Fatal("acquire after home move should succeed")
	}
	if s, ok := lt.Home(1); !ok || s != NodeSide {
		t.Fatalf("home = %v %v", s, ok)
	}
	if _, ok := lt.Home(99); ok {
		t.Fatal("unknown lock should have no home")
	}
}

func TestSideString(t *testing.T) {
	if DeviceSide.String() != "device" || NodeSide.String() != "node" {
		t.Fatal("side names wrong")
	}
	if DeviceSide.Other() != NodeSide || NodeSide.Other() != DeviceSide {
		t.Fatal("Other() wrong")
	}
}
