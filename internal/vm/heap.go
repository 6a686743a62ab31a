package vm

import (
	"cmp"
	"fmt"
	"slices"

	"tinman/internal/taint"
)

// Object is a heap entity: a class instance, an array, or a string. Strings
// and arrays taint at object granularity; instance fields taint per slot.
type Object struct {
	// ID is the DSM-wide identity: the device and the trusted node allocate
	// from disjoint ID spaces so an object keeps one ID on both heaps.
	ID    uint64
	Class *Class
	// Fields are the instance slots (class objects only).
	Fields []Value
	// Elems are the array slots (arrays only).
	Elems []Value
	// Str is the string payload (strings only).
	Str string
	// IsArr / IsStr discriminate the shape. Plain instances have both false.
	IsArr bool
	IsStr bool
	// Tag is the object-granularity taint (strings, arrays, and cor
	// containers).
	Tag taint.Tag
	// FieldTags and ElemTags are the TaintDroid-style shadow tag stores for
	// instance fields and array elements. They are nil until a tracking
	// policy writes a non-empty tag, so the untainted baseline never pays
	// for them.
	FieldTags []taint.Tag
	ElemTags  []taint.Tag
	// CorID, when non-empty, marks this object as a cor carrier: the DSM
	// never serializes its payload, only the cor ID (§3.1). On the device
	// the payload is the placeholder; on the trusted node, the plaintext.
	CorID string
	// Version increments on every mutation; the DSM uses it for dirty-field
	// accounting.
	Version uint64
}

// FieldByName reads a field via its name; it is a convenience for natives
// and tests (bytecode uses resolved indices). The returned value carries the
// field's shadow tag.
func (o *Object) FieldByName(name string) (Value, bool) {
	ix := o.Class.FieldIndex(name)
	if ix < 0 {
		return Value{}, false
	}
	v := o.Fields[ix]
	v.Tag = o.FieldTag(ix)
	return v, true
}

// FieldTag reads the shadow tag of field i (None when untracked).
func (o *Object) FieldTag(i int) taint.Tag {
	if o.FieldTags == nil {
		return taint.None
	}
	return o.FieldTags[i]
}

// SetFieldTag writes a field's shadow tag, allocating the store on first
// non-empty write.
func (o *Object) SetFieldTag(i int, t taint.Tag) {
	if o.FieldTags == nil {
		if t.Empty() {
			return
		}
		o.FieldTags = make([]taint.Tag, len(o.Fields))
	}
	o.FieldTags[i] = t
}

// ElemTag reads the shadow tag of array element i.
func (o *Object) ElemTag(i int) taint.Tag {
	if o.ElemTags == nil {
		return taint.None
	}
	return o.ElemTags[i]
}

// SetElemTag writes an element's shadow tag, allocating the store on first
// non-empty write.
func (o *Object) SetElemTag(i int, t taint.Tag) {
	if o.ElemTags == nil {
		if t.Empty() {
			return
		}
		o.ElemTags = make([]taint.Tag, len(o.Elems))
	}
	o.ElemTags[i] = t
}

// WireSize estimates the serialized size in bytes of the object for DSM
// accounting: headers plus payload.
func (o *Object) WireSize() int {
	n := 24 // id, class ref, shape, tag
	switch {
	case o.IsStr:
		n += len(o.Str)
	case o.IsArr:
		n += 12 * len(o.Elems)
	default:
		n += 12 * len(o.Fields)
	}
	return n
}

// Heap is one endpoint's object store with dirty tracking for the DSM.
type Heap struct {
	objects map[uint64]*Object
	nextID  uint64
	step    uint64
	dirty   map[uint64]struct{}
	// lastDirty short-circuits MarkDirty for consecutive writes to the same
	// object (the aput-in-a-loop pattern): the map insert is skipped once
	// the object is known-dirty. Reset whenever the dirty set is cleared.
	lastDirty *Object
	// Allocs counts allocations for stats.
	Allocs uint64
}

// NewHeap creates a heap whose allocation IDs start at base and advance by
// step. The device uses (1, 2) — odd IDs — and the trusted node (2, 2) —
// even IDs — so migrated threads can allocate on either side without
// colliding.
func NewHeap(base, step uint64) *Heap {
	if step == 0 {
		panic("vm: heap ID step must be positive")
	}
	return &Heap{
		objects: make(map[uint64]*Object),
		nextID:  base,
		step:    step,
		dirty:   make(map[uint64]struct{}),
	}
}

// Alloc creates an instance of class c with zeroed (null/0) fields.
func (h *Heap) Alloc(c *Class) *Object {
	o := &Object{ID: h.takeID(), Class: c, Fields: make([]Value, len(c.Fields))}
	for i := range o.Fields {
		o.Fields[i] = NullVal()
	}
	h.install(o)
	return o
}

// AllocArray creates an array of n null slots.
func (h *Heap) AllocArray(c *Class, n int) *Object {
	if n < 0 {
		n = 0
	}
	o := &Object{ID: h.takeID(), Class: c, IsArr: true, Elems: make([]Value, n)}
	for i := range o.Elems {
		o.Elems[i] = IntVal(0)
	}
	h.install(o)
	return o
}

// AllocString creates a string object with the given content and tag.
func (h *Heap) AllocString(c *Class, s string, tag taint.Tag) *Object {
	o := &Object{ID: h.takeID(), Class: c, IsStr: true, Str: s, Tag: tag}
	h.install(o)
	return o
}

// Adopt installs an object created elsewhere (DSM sync) preserving its ID,
// replacing an existing object with the same ID. An ID in this heap's own
// space moves the allocator past it: after a handoff, a full re-sync to a
// fresh node VM carries the IDs the old node allocated. CanAdopt(o.ID)
// must hold.
func (h *Heap) Adopt(o *Object) {
	if !h.CanAdopt(o.ID) {
		panic(fmt.Sprintf("vm: cannot adopt object ID %d", o.ID))
	}
	h.objects[o.ID] = o
	if o.ID%h.step == h.nextID%h.step && o.ID >= h.nextID {
		h.nextID = o.ID + h.step
	}
}

// MaxOwnAdoptID bounds the own-space IDs Adopt accepts: no heap allocates
// 2^62 objects, so the allocator never wraps onto ID 0 or an ID it holds.
const MaxOwnAdoptID = 1 << 62

// CanAdopt reports whether Adopt accepts an ID: not the null ID 0, nor one
// in this heap's own space at or above MaxOwnAdoptID.
func (h *Heap) CanAdopt(id uint64) bool {
	return id != 0 && (id%h.step != h.nextID%h.step || id < MaxOwnAdoptID)
}

// Get returns the object with the given ID, or nil.
func (h *Heap) Get(id uint64) *Object { return h.objects[id] }

// Len returns the number of live objects.
func (h *Heap) Len() int { return len(h.objects) }

// Objects returns all objects ordered by ID (stable for serialization).
func (h *Heap) Objects() []*Object {
	out := make([]*Object, 0, len(h.objects))
	for _, o := range h.objects {
		out = append(out, o)
	}
	slices.SortFunc(out, byID)
	return out
}

// byID orders objects by ID.
func byID(a, b *Object) int { return cmp.Compare(a.ID, b.ID) }

// MarkDirty records a mutation for the DSM. The VM calls it on every heap
// write; natives that mutate objects must call it too.
func (h *Heap) MarkDirty(o *Object) {
	o.Version++
	if h.lastDirty == o {
		return
	}
	h.dirty[o.ID] = struct{}{}
	h.lastDirty = o
}

// DirtyObjects returns the mutated-since-last-clear objects ordered by ID.
func (h *Heap) DirtyObjects() []*Object {
	out := make([]*Object, 0, len(h.dirty))
	for id := range h.dirty {
		if o := h.objects[id]; o != nil {
			out = append(out, o)
		}
	}
	slices.SortFunc(out, byID)
	return out
}

// ClearDirty resets dirty tracking after a sync.
func (h *Heap) ClearDirty() {
	h.dirty = make(map[uint64]struct{})
	h.lastDirty = nil
}

// DirtyCount returns the number of dirty objects.
func (h *Heap) DirtyCount() int { return len(h.dirty) }

// WireSize estimates the serialized size of the whole heap (the initial DSM
// sync, Table 3 "Off. Init").
func (h *Heap) WireSize() int {
	n := 0
	for _, o := range h.objects {
		n += o.WireSize()
	}
	return n
}

func (h *Heap) takeID() uint64 {
	id := h.nextID
	h.nextID += h.step
	return id
}

func (h *Heap) install(o *Object) {
	if _, dup := h.objects[o.ID]; dup {
		panic(fmt.Sprintf("vm: duplicate heap ID %d", o.ID))
	}
	h.objects[o.ID] = o
	h.Allocs++
	h.dirty[o.ID] = struct{}{}
	h.lastDirty = o
}
