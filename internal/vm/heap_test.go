package vm

import (
	"math"
	"testing"
	"testing/quick"

	"tinman/internal/taint"
)

func TestHeapIDSpacesDisjoint(t *testing.T) {
	dev := NewHeap(1, 2)  // odd IDs
	node := NewHeap(2, 2) // even IDs
	c := NewClass("C")
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		a, b := dev.Alloc(c), node.Alloc(c)
		if a.ID%2 != 1 || b.ID%2 != 0 {
			t.Fatalf("ID parity wrong: dev=%d node=%d", a.ID, b.ID)
		}
		if seen[a.ID] || seen[b.ID] {
			t.Fatal("duplicate ID across endpoints")
		}
		seen[a.ID], seen[b.ID] = true, true
	}
}

func TestHeapDirtyTracking(t *testing.T) {
	h := NewHeap(1, 1)
	c := NewClass("C", "f")
	o := h.Alloc(c)
	if h.DirtyCount() != 1 {
		t.Fatalf("fresh alloc should be dirty, count=%d", h.DirtyCount())
	}
	h.ClearDirty()
	if h.DirtyCount() != 0 {
		t.Fatal("clear failed")
	}
	v0 := o.Version
	h.MarkDirty(o)
	if h.DirtyCount() != 1 || o.Version != v0+1 {
		t.Fatalf("mark dirty: count=%d version=%d", h.DirtyCount(), o.Version)
	}
	d := h.DirtyObjects()
	if len(d) != 1 || d[0] != o {
		t.Fatalf("dirty objects = %v", d)
	}
}

func TestHeapAdoptPreservesID(t *testing.T) {
	h := NewHeap(1, 2)
	c := NewClass("C")
	o := &Object{ID: 42, Class: c}
	h.Adopt(o)
	if h.Get(42) != o {
		t.Fatal("adopted object not retrievable")
	}
	// Adoption replaces an existing object with the same ID (DSM update).
	o2 := &Object{ID: 42, Class: c, Str: "new", IsStr: true}
	h.Adopt(o2)
	if h.Get(42) != o2 {
		t.Fatal("adoption did not replace")
	}
}

// TestHeapAdoptMovesAllocatorPast adopts objects in the heap's own ID
// space, as a full re-sync to a fresh node VM does after a handoff: the
// next allocation must take a fresh ID instead of colliding. An own-space
// ID from MaxOwnAdoptID up is refused.
func TestHeapAdoptMovesAllocatorPast(t *testing.T) {
	h := NewHeap(2, 2) // the node's even IDs
	c := NewClass("C")
	h.Adopt(&Object{ID: 2, Class: c})
	h.Adopt(&Object{ID: 7, Class: c}) // the device's space: no effect
	if o := h.AllocString(c, "x", 0); o.ID != 4 {
		t.Fatalf("allocation after adopting #2 took ID %d, want 4", o.ID)
	}
	h.Adopt(&Object{ID: 10, Class: c})
	if o := h.Alloc(c); o.ID != 12 {
		t.Fatalf("allocation after adopting #10 took ID %d, want 12", o.ID)
	}
	if h.CanAdopt(0) || h.CanAdopt(MaxOwnAdoptID) || h.CanAdopt(math.MaxUint64-3) || !h.CanAdopt(math.MaxUint64) {
		t.Fatal("CanAdopt must refuse ID 0 and only own-space IDs from MaxOwnAdoptID up")
	}
}

// TestHeapAdoptHighestOwnIDKeepsAllocating adopts the highest own-space ID
// the heap admits next to an ID the heap allocated itself: the allocations
// after it must neither panic on a duplicate nor hand out the null ID 0.
func TestHeapAdoptHighestOwnIDKeepsAllocating(t *testing.T) {
	h := NewHeap(2, 2)
	c := NewClass("C")
	h.Alloc(c) // #2
	top := uint64(MaxOwnAdoptID - 2)
	if !h.CanAdopt(top) {
		t.Fatalf("CanAdopt(%d) = false, want the highest admitted own-space ID", top)
	}
	h.Adopt(&Object{ID: top, Class: c})
	seen := map[uint64]bool{2: true, top: true}
	for i := 0; i < 3; i++ {
		o := h.Alloc(c)
		if o.ID == 0 || seen[o.ID] {
			t.Fatalf("allocation %d after adopting #%d took ID %d", i, top, o.ID)
		}
		seen[o.ID] = true
	}
}

func TestHeapAdoptWithoutIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHeap(1, 1).Adopt(&Object{})
}

func TestObjectsSortedByID(t *testing.T) {
	h := NewHeap(1, 2)
	c := NewClass("C")
	for i := 0; i < 10; i++ {
		h.Alloc(c)
	}
	objs := h.Objects()
	for i := 1; i < len(objs); i++ {
		if objs[i-1].ID >= objs[i].ID {
			t.Fatal("objects not sorted by ID")
		}
	}
}

func TestWireSizeAccounting(t *testing.T) {
	h := NewHeap(1, 1)
	strC := NewClass("java/lang/String")
	o := h.AllocString(strC, "0123456789", taint.None)
	if o.WireSize() != 24+10 {
		t.Fatalf("string wire size = %d, want 34", o.WireSize())
	}
	arr := h.AllocArray(NewClass("java/lang/Array"), 4)
	if arr.WireSize() != 24+48 {
		t.Fatalf("array wire size = %d, want 72", arr.WireSize())
	}
	if h.WireSize() != o.WireSize()+arr.WireSize() {
		t.Fatal("heap wire size is not the sum of objects")
	}
}

func TestFieldByName(t *testing.T) {
	h := NewHeap(1, 1)
	c := NewClass("C", "a", "b")
	o := h.Alloc(c)
	o.Fields[1] = IntVal(9)
	if v, ok := o.FieldByName("b"); !ok || v.Int != 9 {
		t.Fatalf("FieldByName(b) = %v %v", v, ok)
	}
	if _, ok := o.FieldByName("zzz"); ok {
		t.Fatal("missing field reported present")
	}
}

func TestClassDuplicateFieldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewClass("C", "x", "x")
}

func TestProgramSealAndHash(t *testing.T) {
	p := NewProgram("app")
	c := NewClass("C")
	c.AddMethod(&Method{Name: "m", NArgs: 0, NRegs: 1, Code: []Instr{{Op: OpRetVoid}}})
	p.AddClass(c)
	p.Seal()
	if p.Hash() == "" || len(p.Hash()) != 64 {
		t.Fatalf("hash = %q", p.Hash())
	}
	p.Seal() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("AddClass after seal should panic")
		}
	}()
	p.AddClass(NewClass("D"))
}

func TestHashBeforeSealPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewProgram("x").Hash()
}

func TestValueConstructorsAndString(t *testing.T) {
	if v := IntVal(5); v.Kind != KindInt || v.Int != 5 {
		t.Fatalf("IntVal = %v", v)
	}
	if v := FloatVal(2.5); v.Kind != KindFloat || v.Float() != 2.5 {
		t.Fatalf("FloatVal = %v", v)
	}
	if !NullVal().IsNull() {
		t.Fatal("NullVal not null")
	}
	h := NewHeap(1, 1)
	o := h.AllocString(NewClass("S"), "x", taint.Bit(1))
	v := RefVal(o)
	if v.IsNull() || v.EffectiveTag() != taint.Bit(1) {
		t.Fatalf("RefVal = %v effTag=%v", v, v.EffectiveTag())
	}
	for _, val := range []Value{IntVal(1), FloatVal(1), NullVal(), v, {Kind: KindInvalid}} {
		if val.String() == "" {
			t.Fatal("empty String()")
		}
	}
	for _, k := range []Kind{KindInvalid, KindInt, KindFloat, KindRef, Kind(99)} {
		if k.String() == "" {
			t.Fatal("empty Kind.String()")
		}
	}
}

// Property: allocation IDs are strictly increasing and unique per heap.
func TestAllocIDsMonotoneProperty(t *testing.T) {
	prop := func(base uint8, count uint8) bool {
		h := NewHeap(uint64(base)+1, 2)
		c := NewClass("C")
		var last uint64
		for i := 0; i < int(count%64)+1; i++ {
			o := h.Alloc(c)
			if o.ID <= last {
				return false
			}
			last = o.ID
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
