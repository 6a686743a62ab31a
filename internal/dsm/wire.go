// Package dsm implements the distributed-shared-memory offloading engine
// TinMan builds on COMET (§2.4, §3.1). A pair of Endpoints — one on the
// device, one on the trusted node — keep their VM heaps synchronized and
// migrate threads between them.
//
// The security-oriented twist over plain COMET: objects carrying cor taint
// are never serialized by content. Only the cor ID crosses the wire, and
// each side re-materializes its own representation — placeholder on the
// device, plaintext on the trusted node (§3.1).
package dsm

import (
	"encoding/binary"
	"fmt"
	"sync"

	"tinman/internal/obs"
	"tinman/internal/vm"
)

// wire format version, bumped on incompatible codec changes.
// v2 added Migration.WarmEpoch (speculative warm-up protocol).
const wireVersion = 2

// ValueState is the serialized form of a vm.Value. Masked values carry only
// their taint: the receiver keeps (or zeroes) the datum locally. Int is the
// datum as vm.Value holds it, a float as its IEEE-754 bits; on the wire an
// int is a varint and a float its 8 little-endian bits.
type ValueState struct {
	Kind   uint8
	Int    int64
	RefID  uint64 // 0 = null
	Tag    uint64
	Masked bool
}

// ObjectState is the serialized form of a heap object.
type ObjectState struct {
	ID      uint64
	Class   string
	Tag     uint64
	Version uint64
	IsArr   bool
	IsStr   bool
	// CorID, when set, replaces the string content entirely (§3.1: "the
	// offloading engine will only transfer its ID").
	CorID  string
	StrLen int
	Str    string
	Fields []ValueState
	Elems  []ValueState
}

// FrameState is the serialized form of an activation record.
type FrameState struct {
	Class  string
	Method string
	PC     int
	RetReg int
	Regs   []ValueState
}

// Migration is a thread hand-off plus the sender's heap delta.
type Migration struct {
	Seq     uint64
	Reason  vm.StopReason
	Initial bool // carries the full heap (warm-up first sync)
	// TriggerTag is the taint tag that fired the offload (Reason ==
	// StopMigrateTaint); the trusted node runs its per-cor policy checks
	// against it before resuming the thread.
	TriggerTag uint64
	// WarmEpoch, when non-zero, declares that this migration is a warm-path
	// delta: the receiver must already hold a completed warm-up session with
	// the same epoch (warmup.go) or reject the migration so the sender can
	// fall back to a full snapshot. Zero means the cold path.
	WarmEpoch uint64
	Frames    []FrameState
	Objects   []ObjectState
	// Result carries the thread result when Reason == StopDone (the thread
	// finished remotely and only state flows back).
	Result ValueState
}

// ObsFields summarizes a migration for span attribution: the stop reason,
// the shipped frame/object counts, the trigger tag bits and whether this is
// the warm-up full-heap sync. Deliberately shallow — ObjectState content can
// embed app heap data, so object payloads and strings never become fields.
func (m *Migration) ObsFields() []obs.Field {
	fs := []obs.Field{
		obs.Msg(uint8(m.Reason)),
		obs.Count(int64(len(m.Frames) + len(m.Objects))),
	}
	if m.TriggerTag != 0 {
		fs = append(fs, obs.TagBits(m.TriggerTag))
	}
	if m.Initial {
		fs = append(fs, obs.Note("initial"))
	}
	if m.WarmEpoch != 0 {
		fs = append(fs, obs.Note("warm"))
	}
	return fs
}

// --- encoder ---

type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8)      { e.buf = append(e.buf, v) }
func (e *encoder) u64(v uint64)    { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) i64(v int64)     { e.buf = binary.AppendVarint(e.buf, v) }
func (e *encoder) bits64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) str(s string) {
	e.u64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *encoder) b(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *encoder) value(v *ValueState) {
	e.u8(v.Kind)
	e.b(v.Masked)
	e.u64(v.Tag)
	if v.Masked {
		return
	}
	switch vm.Kind(v.Kind) {
	case vm.KindInt:
		e.i64(v.Int)
	case vm.KindFloat:
		e.bits64(uint64(v.Int))
	case vm.KindRef:
		e.u64(v.RefID)
	}
}

func (e *encoder) object(o *ObjectState) {
	e.u64(o.ID)
	e.str(o.Class)
	e.u64(o.Tag)
	e.u64(o.Version)
	e.b(o.IsArr)
	e.b(o.IsStr)
	e.str(o.CorID)
	if o.IsStr {
		e.u64(uint64(o.StrLen))
		if o.CorID == "" {
			e.str(o.Str)
		}
		return
	}
	if o.IsArr {
		e.u64(uint64(len(o.Elems)))
		for i := range o.Elems {
			e.value(&o.Elems[i])
		}
		return
	}
	e.u64(uint64(len(o.Fields)))
	for i := range o.Fields {
		e.value(&o.Fields[i])
	}
}

func (e *encoder) frame(f *FrameState) {
	e.str(f.Class)
	e.str(f.Method)
	e.u64(uint64(f.PC))
	e.u64(uint64(f.RetReg))
	e.u64(uint64(len(f.Regs)))
	for i := range f.Regs {
		e.value(&f.Regs[i])
	}
}

// encPool recycles encoders across Encode/EncodedSize calls. A migration is
// encoded twice on the hot path (once for accounting, once for the wire), so
// the capacity an encoder grew to on one sync is exactly what the next one
// needs — pooling turns the per-sync slice growth into a single exact-size
// copy for Encode and zero allocations for EncodedSize.
var encPool = sync.Pool{New: func() any { return &encoder{buf: make([]byte, 0, 512)} }}

func (m *Migration) encodeInto(e *encoder) {
	e.u8(wireVersion)
	e.u64(m.Seq)
	e.u8(uint8(m.Reason))
	e.b(m.Initial)
	e.u64(m.TriggerTag)
	e.u64(m.WarmEpoch)
	e.value(&m.Result)
	e.u64(uint64(len(m.Frames)))
	for i := range m.Frames {
		e.frame(&m.Frames[i])
	}
	e.u64(uint64(len(m.Objects)))
	for i := range m.Objects {
		e.object(&m.Objects[i])
	}
}

// Encode serializes the migration to its wire form. The returned slice is
// freshly allocated at exact size; the working buffer is pooled.
func (m *Migration) Encode() []byte {
	e := encPool.Get().(*encoder)
	e.buf = e.buf[:0]
	m.encodeInto(e)
	out := make([]byte, len(e.buf))
	copy(out, e.buf)
	encPool.Put(e)
	return out
}

// EncodedSize returns len(m.Encode()) without allocating the result: the
// byte-accounting path (SyncStats) only needs the size.
func (m *Migration) EncodedSize() int {
	e := encPool.Get().(*encoder)
	e.buf = e.buf[:0]
	m.encodeInto(e)
	n := len(e.buf)
	encPool.Put(e)
	return n
}

// --- decoder ---

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("dsm: decode: "+format, args...)
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("truncated at byte %d", d.off)
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) b() bool { return d.u8() != 0 }

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at byte %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) i64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint at byte %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) bits64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail("truncated float at byte %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) str() string {
	n := d.u64()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("string length %d exceeds remaining %d", n, len(d.buf)-d.off)
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *decoder) value(v *ValueState) {
	v.Kind = d.u8()
	v.Masked = d.b()
	v.Tag = d.u64()
	if v.Masked {
		return
	}
	switch vm.Kind(v.Kind) {
	case vm.KindInt:
		v.Int = d.i64()
	case vm.KindFloat:
		v.Int = int64(d.bits64())
	case vm.KindRef:
		v.RefID = d.u64()
	}
}

func (d *decoder) object(o *ObjectState) {
	o.ID = d.u64()
	o.Class = d.str()
	o.Tag = d.u64()
	o.Version = d.u64()
	o.IsArr = d.b()
	o.IsStr = d.b()
	o.CorID = d.str()
	if o.IsStr {
		o.StrLen = int(d.u64())
		if o.CorID == "" {
			o.Str = d.str()
		}
		return
	}
	n := d.u64()
	if d.err != nil {
		return
	}
	if n > uint64(len(d.buf)) {
		d.fail("slot count %d implausible", n)
		return
	}
	slots := make([]ValueState, n)
	for i := range slots {
		d.value(&slots[i])
	}
	if o.IsArr {
		o.Elems = slots
	} else {
		o.Fields = slots
	}
}

func (d *decoder) frame(f *FrameState) {
	f.Class = d.str()
	f.Method = d.str()
	f.PC = int(d.u64())
	f.RetReg = int(d.u64())
	n := d.u64()
	if d.err != nil {
		return
	}
	if n > uint64(len(d.buf)) {
		d.fail("register count %d implausible", n)
		return
	}
	f.Regs = make([]ValueState, n)
	for i := range f.Regs {
		d.value(&f.Regs[i])
	}
}

// DecodeMigration parses a wire-form migration.
func DecodeMigration(buf []byte) (*Migration, error) {
	d := &decoder{buf: buf}
	if v := d.u8(); v != wireVersion && d.err == nil {
		return nil, fmt.Errorf("dsm: wire version %d, want %d", v, wireVersion)
	}
	m := &Migration{}
	m.Seq = d.u64()
	m.Reason = vm.StopReason(d.u8())
	m.Initial = d.b()
	m.TriggerTag = d.u64()
	m.WarmEpoch = d.u64()
	d.value(&m.Result)
	nf := d.u64()
	if d.err == nil && nf > uint64(len(buf)) {
		d.fail("frame count %d implausible", nf)
	}
	if d.err == nil {
		m.Frames = make([]FrameState, nf)
		for i := range m.Frames {
			d.frame(&m.Frames[i])
		}
	}
	no := d.u64()
	if d.err == nil && no > uint64(len(buf)) {
		d.fail("object count %d implausible", no)
	}
	if d.err == nil {
		m.Objects = make([]ObjectState, no)
		for i := range m.Objects {
			d.object(&m.Objects[i])
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(buf) {
		return nil, fmt.Errorf("dsm: decode: %d trailing bytes", len(buf)-d.off)
	}
	return m, nil
}
