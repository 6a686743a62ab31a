package dsm

import (
	"errors"
	"fmt"

	"tinman/internal/taint"
	"tinman/internal/vm"
)

// ErrRestricted reports that a DSM operation touched state tainted by a
// server-only cor (cor.ClassServerOnly): such state never ships in a warm-up
// or migration payload, in either direction. Captures fail with this error
// when live frame state carries a restricted bit; applies fail with it when
// a peer tries to push restricted state in (node admission / device defense
// in depth). Callers match with errors.Is.
var ErrRestricted = errors.New("server-only tainted state may not ship in DSM payloads")

// Side identifies an endpoint of the DSM pair.
type Side uint8

const (
	// DeviceSide is the mobile device: placeholders only.
	DeviceSide Side = iota
	// NodeSide is the trusted node: plaintexts, full tainting.
	NodeSide
)

func (s Side) String() string {
	if s == DeviceSide {
		return "device"
	}
	return "node"
}

// Other returns the opposite side.
func (s Side) Other() Side {
	if s == DeviceSide {
		return NodeSide
	}
	return DeviceSide
}

// Resolver supplies each side's representation of a cor. The device resolver
// returns placeholders; the trusted-node resolver returns plaintext and can
// mint derived cor IDs for freshly tainted strings (fig 11's concatenated
// request is "a new cor").
type Resolver interface {
	// Fill returns this side's content for the cor. length is the wire-
	// declared content length, letting the device synthesize placeholders
	// for derived cors it has never seen (the placeholder must have the
	// same size as the cor, Table 1).
	Fill(corID string, length int) (content string, tag taint.Tag, ok bool)
	// MaskID returns the cor ID to transmit for a tainted string object
	// that has none yet, registering a derived cor if this side may do so.
	// An empty return means the object cannot be masked (an error: tainted
	// content must never be serialized).
	MaskID(o *vm.Object) string
}

// SyncStats is the Table 3 accounting: number of DSM synchronizations and
// bytes moved in the initial full-heap sync versus later dirty syncs.
type SyncStats struct {
	Syncs      int
	InitBytes  int
	DirtyBytes int
	// ObjectsSent counts objects serialized across all syncs.
	ObjectsSent int
	// Withheld counts heap objects excluded from outbound payloads because
	// they carry server-only (Restricted) taint.
	Withheld int
	// WarmupChunks/WarmupBytes count the background warm-up traffic
	// (warmup.go): shipped off the critical path, so kept separate from the
	// trigger-time Init/Dirty accounting.
	WarmupChunks int
	WarmupBytes  int
}

// SyncMode selects what each synchronization ships.
type SyncMode uint8

const (
	// SyncDirty is COMET's (and TinMan's) mode: full heap once, then only
	// mutated objects.
	SyncDirty SyncMode = iota
	// SyncFull ships the entire heap on every migration — the naive
	// strawman the dirty tracking exists to avoid. Exposed for the
	// ablation benchmark.
	SyncFull
)

// Endpoint is one side of the DSM pair.
type Endpoint struct {
	Side     Side
	VM       *vm.VM
	Resolver Resolver
	Stats    SyncStats
	// Mode selects dirty-tracking (default) or the full-sync ablation.
	Mode SyncMode
	// Restricted is the union of taint bits belonging to server-only cors
	// (cor.Store.RestrictedMask on the node; derived from catalog classes on
	// the device). Heap objects carrying any of these bits are silently
	// withheld from every outbound payload — warm-up chunk, initial sync,
	// dirty delta — and inbound payloads carrying them are refused with
	// ErrRestricted. A live frame register (or result) carrying a restricted
	// bit fails the capture itself: execution over server-only data cannot
	// migrate off the node.
	Restricted taint.Tag

	seq         uint64
	initialSent bool

	// Speculative warm-up state (warmup.go): warm/warmSeq on the sending
	// side, warmRecv on the receiving side.
	warm     *warmupSend
	warmSeq  uint64
	warmRecv *warmupRecv
}

// NewEndpoint wraps a VM as a DSM endpoint.
func NewEndpoint(side Side, machine *vm.VM, res Resolver) *Endpoint {
	if machine == nil {
		panic("dsm: nil VM")
	}
	return &Endpoint{Side: side, VM: machine, Resolver: res}
}

// restricted reports whether the tag carries any server-only bit.
func (e *Endpoint) restricted(t taint.Tag) bool { return t.Overlaps(e.Restricted) }

// ResetWarmup clears the initial-sync marker, as when a new app is loaded
// (the dex warm-up in §6.2 happens per app), and discards any speculative
// warm-up attempt with it — the peer's heap can no longer be assumed warm.
func (e *Endpoint) ResetWarmup() {
	e.initialSent = false
	e.warm = nil
}

// InitialSent reports whether the full-heap sync has happened.
func (e *Endpoint) InitialSent() bool { return e.initialSent }

// CaptureMigration packages the thread's stack plus this side's heap delta
// for transfer. The first capture ships the entire heap (the warm-up sync);
// later captures ship only dirty objects. If the thread is nil (pure state
// sync after remote completion), only heap state is shipped.
func (e *Endpoint) CaptureMigration(t *vm.Thread, reason vm.StopReason) (*Migration, error) {
	e.seq++
	m := &Migration{Seq: e.seq, Reason: reason, Result: ValueState{Kind: uint8(vm.KindRef)}}

	var objs []*vm.Object
	switch {
	case !e.initialSent && e.Mode != SyncFull && e.WarmupReady():
		// Warm path: the full snapshot already shipped in background chunks.
		// Ship only objects whose Version moved past (or never entered) the
		// shipped record — mutated since their chunk was captured, or
		// allocated after the warm-up began. The heap never deletes, so this
		// delta is complete.
		m.WarmEpoch = e.warm.epoch
		for _, o := range e.VM.Heap.Objects() {
			if v, ok := e.warm.shipped[o.ID]; !ok || v != o.Version {
				objs = append(objs, o)
			}
		}
		e.initialSent = true
		e.warm = nil
	case !e.initialSent || e.Mode == SyncFull:
		m.Initial = !e.initialSent
		objs = e.VM.Heap.Objects()
		e.initialSent = true
	default:
		objs = e.VM.Heap.DirtyObjects()
	}
	m.Objects = make([]ObjectState, 0, len(objs))
	for _, o := range objs {
		if e.restricted(o.Tag) {
			// Server-only tainted objects stay home: not even the masked
			// shell ships. This runs after every selection path, so warm
			// deltas (where a withheld object looks "never shipped") are
			// filtered too.
			e.Stats.Withheld++
			continue
		}
		os, err := e.encodeObject(o)
		if err != nil {
			return nil, err
		}
		m.Objects = append(m.Objects, os)
	}
	e.VM.Heap.ClearDirty()

	if t != nil {
		if reason == vm.StopDone {
			if e.restricted(t.Result.Tag) {
				return nil, fmt.Errorf("dsm: %s: %w: result value carries restricted taint %v",
					e.Side, ErrRestricted, t.Result.Tag)
			}
			rs, err := e.encodeValue(t.Result, t.Result.Tag)
			if err != nil {
				return nil, err
			}
			m.Result = rs
		}
		m.Frames = make([]FrameState, len(t.Frames))
		for i, f := range t.Frames {
			fs := FrameState{
				Class:  f.Method.Class.Name,
				Method: f.Method.Name,
				PC:     f.PC,
				RetReg: f.RetReg,
				Regs:   make([]ValueState, len(f.Regs)),
			}
			for j, r := range f.Regs {
				// Unlike heap objects, live frame state cannot be silently
				// withheld — the frame would be torn — so a restricted bit in
				// a register (or in the object it references) fails the whole
				// capture. The node maps this to a server-only policy denial.
				if tg := f.Tag(j); e.restricted(tg) {
					return nil, fmt.Errorf("dsm: %s: %w: frame %d %s.%s reg %d carries restricted taint %v",
						e.Side, ErrRestricted, i, fs.Class, fs.Method, j, tg)
				}
				if r.Kind == vm.KindRef && r.Ref != nil && e.restricted(r.Ref.Tag) {
					return nil, fmt.Errorf("dsm: %s: %w: frame %d %s.%s reg %d references withheld object #%d",
						e.Side, ErrRestricted, i, fs.Class, fs.Method, j, r.Ref.ID)
				}
				vs, err := e.encodeValue(r, f.Tag(j))
				if err != nil {
					return nil, err
				}
				fs.Regs[j] = vs
			}
			m.Frames[i] = fs
		}
	}

	// Accounting. EncodedSize avoids allocating a throwaway encode: the real
	// wire bytes are produced by the transport's own Encode call.
	wire := m.EncodedSize()
	e.Stats.Syncs++
	e.Stats.ObjectsSent += len(m.Objects)
	if m.Initial {
		e.Stats.InitBytes += wire
	} else {
		e.Stats.DirtyBytes += wire
	}
	return m, nil
}

// encodeValue serializes a register or slot value with its shadow tag
// (register tags live in Frame.Tags, slot tags in the object's shadow
// stores). Tainted primitives are masked: the datum stays home, only the
// tag travels.
func (e *Endpoint) encodeValue(v vm.Value, tag taint.Tag) (ValueState, error) {
	vs := ValueState{Kind: uint8(v.Kind), Int: v.Int, Tag: uint64(tag)}
	if v.Kind == vm.KindRef {
		vs.Int = 0
		if v.Ref != nil {
			vs.RefID = v.Ref.ID
		}
		return vs, nil
	}
	// Tainted primitives never travel by value: the trusted node masks them
	// to keep secrets home, and the device masks them because its copies
	// are dummies from an earlier masked sync — echoing them back would
	// clobber the node's authoritative datum.
	if !tag.Empty() {
		vs.Masked = true
		vs.Int = 0
	}
	return vs, nil
}

// encodeObject serializes a heap object, replacing tainted string content
// with a cor ID.
func (e *Endpoint) encodeObject(o *vm.Object) (ObjectState, error) {
	os := ObjectState{
		ID:      o.ID,
		Class:   o.Class.Name,
		Tag:     uint64(o.Tag),
		Version: o.Version,
		IsArr:   o.IsArr,
		IsStr:   o.IsStr,
		CorID:   o.CorID,
	}
	switch {
	case o.IsStr:
		os.StrLen = len(o.Str)
		if o.CorID == "" && !o.Tag.Empty() {
			if e.Resolver == nil {
				return os, fmt.Errorf("dsm: %s: tainted string #%d has no cor ID and no resolver", e.Side, o.ID)
			}
			id := e.Resolver.MaskID(o)
			if id == "" {
				return os, fmt.Errorf("dsm: %s: tainted string #%d cannot be masked", e.Side, o.ID)
			}
			o.CorID = id
			os.CorID = id
		}
		if os.CorID == "" {
			os.Str = o.Str
		}
	case o.IsArr:
		os.Elems = make([]ValueState, len(o.Elems))
		for i, el := range o.Elems {
			vs, err := e.encodeValue(el, o.ElemTag(i))
			if err != nil {
				return os, err
			}
			os.Elems[i] = vs
		}
	default:
		os.Fields = make([]ValueState, len(o.Fields))
		for i, fv := range o.Fields {
			vs, err := e.encodeValue(fv, o.FieldTag(i))
			if err != nil {
				return os, err
			}
			os.Fields[i] = vs
		}
	}
	return os, nil
}

// ApplyMigration merges the peer's heap delta into the local heap and, if
// the migration carries frames, rebuilds the thread against the local VM.
// The returned thread is nil for pure state syncs. A stack the local
// interpreter could not run (vm.CheckStack) is refused before any heap
// state is adopted.
func (e *Endpoint) ApplyMigration(m *Migration) (*vm.Thread, error) {
	if err := e.screenMigration(m); err != nil {
		return nil, err
	}
	var th *vm.Thread
	if len(m.Frames) > 0 {
		th = &vm.Thread{VM: e.VM, Frames: make([]*vm.Frame, len(m.Frames))}
		for i := range m.Frames {
			fs := &m.Frames[i]
			method := e.VM.Program.Method(fs.Class, fs.Method)
			if method == nil {
				return nil, fmt.Errorf("dsm: %s: unknown method %s.%s in migration", e.Side, fs.Class, fs.Method)
			}
			f := &vm.Frame{Method: method, PC: fs.PC, RetReg: fs.RetReg, Regs: make([]vm.Value, len(fs.Regs))}
			if e.VM.Tracking() {
				f.Tags = make([]taint.Tag, len(fs.Regs))
			}
			th.Frames[i] = f
		}
		if err := vm.CheckStack(th.Frames); err != nil {
			return nil, fmt.Errorf("dsm: %s: migrated stack refused: %w", e.Side, err)
		}
	}
	if err := e.adoptObjects(m.Frames, m.Objects); err != nil {
		return nil, err
	}
	e.initialSent = true // receiving an initial sync also warms this side

	if th == nil {
		return nil, nil
	}
	for i := range m.Frames {
		fs, f := &m.Frames[i], th.Frames[i]
		for j := range fs.Regs {
			val, err := e.decodeValue(&fs.Regs[j], vm.Value{})
			if err != nil {
				return nil, err
			}
			f.Regs[j] = val
			if f.Tags != nil {
				f.Tags[j] = val.Tag
			}
			f.Regs[j].Tag = 0 // tags live in the shadow store inside frames
		}
	}
	return th, nil
}

// screenMigration rejects an inbound migration carrying server-only taint
// anywhere — object tags, slot tags, frame register tags, or the result —
// before any of it is adopted into the local heap. The sender's own capture
// filter makes this unreachable for honest peers; keeping it on the apply
// side is the node-admission check (and protects devices from a compromised
// node pushing restricted state out).
func (e *Endpoint) screenMigration(m *Migration) error {
	if e.Restricted.Empty() {
		return nil
	}
	for i := range m.Objects {
		if err := e.screenObject(&m.Objects[i]); err != nil {
			return err
		}
	}
	for i := range m.Frames {
		for j := range m.Frames[i].Regs {
			if tg := taint.Tag(m.Frames[i].Regs[j].Tag); e.restricted(tg) {
				return fmt.Errorf("dsm: %s: %w: inbound frame %d reg %d carries restricted taint %v",
					e.Side, ErrRestricted, i, j, tg)
			}
		}
	}
	if tg := taint.Tag(m.Result.Tag); e.restricted(tg) {
		return fmt.Errorf("dsm: %s: %w: inbound result carries restricted taint %v", e.Side, ErrRestricted, tg)
	}
	return nil
}

// screenObject rejects one inbound object state carrying server-only taint
// on the object itself or any element/field slot.
func (e *Endpoint) screenObject(os *ObjectState) error {
	if tg := taint.Tag(os.Tag); e.restricted(tg) {
		return fmt.Errorf("dsm: %s: %w: inbound object #%d carries restricted taint %v",
			e.Side, ErrRestricted, os.ID, tg)
	}
	for i := range os.Elems {
		if tg := taint.Tag(os.Elems[i].Tag); e.restricted(tg) {
			return fmt.Errorf("dsm: %s: %w: inbound object #%d elem %d carries restricted taint %v",
				e.Side, ErrRestricted, os.ID, i, tg)
		}
	}
	for i := range os.Fields {
		if tg := taint.Tag(os.Fields[i].Tag); e.restricted(tg) {
			return fmt.Errorf("dsm: %s: %w: inbound object #%d field %d carries restricted taint %v",
				e.Side, ErrRestricted, os.ID, i, tg)
		}
	}
	return nil
}

// DecodeResult converts a migration's result slot to a local value.
func (e *Endpoint) DecodeResult(m *Migration) (vm.Value, error) {
	return e.decodeValue(&m.Result, vm.Value{})
}

// decodeValue converts a wire value; prev is the current local value, kept
// when the wire value is masked.
func (e *Endpoint) decodeValue(vs *ValueState, prev vm.Value) (vm.Value, error) {
	if vs.Masked {
		// The datum stayed on the trusted node; locally we keep whatever we
		// had (usually a stale placeholder or zero) but adopt the tag so
		// re-touching it re-triggers offload.
		prev.Tag = taint.Tag(vs.Tag)
		if prev.Kind == vm.KindInvalid {
			prev.Kind = vm.Kind(vs.Kind)
		}
		return prev, nil
	}
	v := vm.Value{Kind: vm.Kind(vs.Kind), Int: vs.Int, Tag: taint.Tag(vs.Tag)}
	if v.Kind == vm.KindRef && vs.RefID != 0 {
		o := e.VM.Heap.Get(vs.RefID)
		if o == nil {
			return vm.Value{}, fmt.Errorf("dsm: %s: reference to unknown object #%d", e.Side, vs.RefID)
		}
		v.Ref = o
	}
	return v, nil
}

// adoptObjects merges a payload's objects, delivered as one or more
// batches, into the heap: the one adopt step of migrations and warm-up.
// Every object passes checkObject, and every reference in the objects and
// in the frames' registers resolves against the payload or the heap,
// before any object is adopted — so a refused payload leaves the heap as
// it was. Then the shells are adopted so references resolve, and the
// slots filled. The peer's state is not "dirty" locally: syncing it back
// would echo.
func (e *Endpoint) adoptObjects(frames []FrameState, batches ...[]ObjectState) error {
	// ids is the set of the payload's object IDs, built on the first
	// reference the heap does not resolve.
	var ids map[uint64]struct{}
	resolve := func(vals []ValueState) error {
		for i := range vals {
			vs := &vals[i]
			if vs.Masked || vm.Kind(vs.Kind) != vm.KindRef || vs.RefID == 0 || e.VM.Heap.Get(vs.RefID) != nil {
				continue
			}
			if ids == nil {
				n := 0
				for _, objs := range batches {
					n += len(objs)
				}
				ids = make(map[uint64]struct{}, n)
				for _, objs := range batches {
					for j := range objs {
						ids[objs[j].ID] = struct{}{}
					}
				}
			}
			if _, ok := ids[vs.RefID]; !ok {
				return fmt.Errorf("dsm: %s: reference to unknown object #%d", e.Side, vs.RefID)
			}
		}
		return nil
	}
	for _, objs := range batches {
		for i := range objs {
			if err := e.checkObject(&objs[i]); err != nil {
				return err
			}
			if err := resolve(objs[i].Elems); err != nil {
				return err
			}
			if err := resolve(objs[i].Fields); err != nil {
				return err
			}
		}
	}
	for i := range frames {
		if err := resolve(frames[i].Regs); err != nil {
			return err
		}
	}
	for _, objs := range batches {
		for i := range objs {
			e.adoptObject(&objs[i])
		}
	}
	for _, objs := range batches {
		for i := range objs {
			if err := e.fillObject(&objs[i]); err != nil {
				return err
			}
		}
	}
	e.VM.Heap.ClearDirty()
	return nil
}

// checkObject refuses an incoming object the heap cannot adopt.
func (e *Endpoint) checkObject(os *ObjectState) error {
	class := e.VM.ClassByName(os.Class)
	if class == nil {
		return fmt.Errorf("dsm: %s: migration references unknown class %s", e.Side, os.Class)
	}
	// ID 0 is the wire's null reference; no object carries it.
	if os.ID == 0 {
		return fmt.Errorf("dsm: %s: object of class %s without an ID", e.Side, os.Class)
	}
	// Field reads index by the class's slot numbers, so an object must
	// carry exactly its class's fields (the string and array classes have
	// none).
	if len(os.Fields) != len(class.Fields) {
		return fmt.Errorf("dsm: %s: object #%d of class %s carries %d fields, want %d",
			e.Side, os.ID, os.Class, len(os.Fields), len(class.Fields))
	}
	if os.IsStr && os.CorID != "" {
		if e.Resolver == nil {
			return fmt.Errorf("dsm: %s: cor %s arrived but no resolver is configured", e.Side, os.CorID)
		}
		content, _, ok := e.Resolver.Fill(os.CorID, os.StrLen)
		if !ok {
			return fmt.Errorf("dsm: %s: unknown cor %s", e.Side, os.CorID)
		}
		if len(content) != os.StrLen {
			return fmt.Errorf("dsm: %s: cor %s length mismatch: local %d, wire %d",
				e.Side, os.CorID, len(content), os.StrLen)
		}
	}
	return nil
}

// adoptObject creates or refreshes the shell of a checked object.
func (e *Endpoint) adoptObject(os *ObjectState) {
	class := e.VM.ClassByName(os.Class)
	o := e.VM.Heap.Get(os.ID)
	if o == nil {
		o = &vm.Object{ID: os.ID, Class: class}
		e.VM.Heap.Adopt(o)
	}
	o.Class = class
	o.Tag = taint.Tag(os.Tag)
	o.Version = os.Version
	o.IsArr = os.IsArr
	o.IsStr = os.IsStr
	o.CorID = os.CorID
}

// fillObject populates a checked object's payload once all referenced
// objects exist.
func (e *Endpoint) fillObject(os *ObjectState) error {
	o := e.VM.Heap.Get(os.ID)
	switch {
	case os.IsStr:
		if os.CorID != "" {
			// checkObject resolved this cor at the wire length.
			content, tag, _ := e.Resolver.Fill(os.CorID, os.StrLen)
			o.Str = content
			o.Tag = o.Tag.Union(tag)
		} else {
			o.Str = os.Str
		}
	case os.IsArr:
		if len(o.Elems) != len(os.Elems) {
			// A reshaped array drops its old shadow tags with its slots.
			o.Elems = make([]vm.Value, len(os.Elems))
			o.ElemTags = nil
		}
		for i := range os.Elems {
			prev := o.Elems[i]
			prev.Tag = o.ElemTag(i)
			val, err := e.decodeValue(&os.Elems[i], prev)
			if err != nil {
				return err
			}
			o.SetElemTag(i, val.Tag)
			val.Tag = 0
			o.Elems[i] = val
		}
	default:
		if len(o.Fields) != len(os.Fields) {
			o.Fields = make([]vm.Value, len(os.Fields))
			o.FieldTags = nil
		}
		for i := range os.Fields {
			prev := o.Fields[i]
			prev.Tag = o.FieldTag(i)
			val, err := e.decodeValue(&os.Fields[i], prev)
			if err != nil {
				return err
			}
			o.SetFieldTag(i, val.Tag)
			val.Tag = 0
			o.Fields[i] = val
		}
	}
	return nil
}

// LockTable tracks monitor ownership across the endpoint pair; the side
// holding a lock establishes the happens-before edge, and a monenter on the
// other side forces a migration (the github case in Table 3).
type LockTable struct {
	owner map[uint64]Side
	held  map[uint64]bool
}

// NewLockTable creates an empty table.
func NewLockTable() *LockTable {
	return &LockTable{owner: make(map[uint64]Side), held: make(map[uint64]bool)}
}

// Acquire attempts to take the object's monitor for side s. It returns
// false when the lock's home is the other side, which forces a migration
// there to establish the happens-before edge.
func (lt *LockTable) Acquire(objID uint64, s Side) bool {
	home, known := lt.owner[objID]
	if known && home != s {
		return false
	}
	lt.owner[objID] = s
	lt.held[objID] = true
	return true
}

// Release drops the monitor; ownership (the lock's home side) is retained
// until explicitly moved.
func (lt *LockTable) Release(objID uint64) { lt.held[objID] = false }

// MoveHome transfers a lock's home side (after a migration services it).
func (lt *LockTable) MoveHome(objID uint64, s Side) { lt.owner[objID] = s }

// Home returns the lock's home side and whether it is known.
func (lt *LockTable) Home(objID uint64) (Side, bool) {
	s, ok := lt.owner[objID]
	return s, ok
}
