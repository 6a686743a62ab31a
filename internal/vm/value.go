// Package vm implements a register-based mini virtual machine in the mold of
// Dalvik: a heap of class instances, arrays and strings, and per-frame
// registers holding primitive values or references. It is the substrate on
// which TinMan's asymmetric taint tracking (internal/taint) and COMET-style
// offloading (internal/dsm) operate.
//
// The VM deliberately mirrors the structural property the paper's
// optimization relies on (§3.5): data can only be computed on after moving
// from the heap into a register (heap→stack), so instrumenting that single
// boundary suffices to intercept every first touch of tainted data.
package vm

import (
	"fmt"
	"math"

	"tinman/internal/taint"
)

// Kind discriminates the representation of a Value.
type Kind uint8

const (
	// KindInvalid is the zero Value; reading one is a VM bug in the program.
	KindInvalid Kind = iota
	// KindInt is a 64-bit integer (also used for booleans and chars).
	KindInt
	// KindFloat is a 64-bit float.
	KindFloat
	// KindRef is a reference to a heap object (possibly nil).
	KindRef
)

func (k Kind) String() string {
	switch k {
	case KindInvalid:
		return "invalid"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindRef:
		return "ref"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a register or field slot. Like Dalvik registers extended by
// TaintDroid, every slot carries a taint tag adjacent to its datum.
//
// Int is the slot's one 64-bit datum: an integer as itself, a float as its
// IEEE-754 bits (read them with Float). Sharing the word keeps a Value at
// 32 bytes, four words per register store; a Dalvik register is untyped
// the same way, so an instruction that reads a float register as an
// integer sees the float's bits.
type Value struct {
	Kind Kind
	Int  int64
	Ref  *Object
	Tag  taint.Tag
}

// IntVal constructs an integer value.
func IntVal(i int64) Value { return Value{Kind: KindInt, Int: i} }

// FloatVal constructs a float value. The bits are kept exactly: -0.0, the
// infinities and NaN payloads survive every move, store and DSM sync.
func FloatVal(f float64) Value { return Value{Kind: KindFloat, Int: int64(math.Float64bits(f))} }

// Float reads the datum as a float.
func (v Value) Float() float64 { return math.Float64frombits(uint64(v.Int)) }

// RefVal constructs a reference value. A nil object is the VM's null.
func RefVal(o *Object) Value { return Value{Kind: KindRef, Ref: o} }

// NullVal is the null reference.
func NullVal() Value { return Value{Kind: KindRef} }

// IsNull reports whether v is a nil reference.
func (v Value) IsNull() bool { return v.Kind == KindRef && v.Ref == nil }

// EffectiveTag returns the taint observable when the value's datum is read:
// the slot tag, unioned with the object tag when dereferencing a string or
// array whose content is tainted at object granularity.
func (v Value) EffectiveTag() taint.Tag {
	t := v.Tag
	if v.Kind == KindRef && v.Ref != nil {
		t = t.Union(v.Ref.Tag)
	}
	return t
}

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		return fmt.Sprintf("int(%d)%s", v.Int, tagSuffix(v.Tag))
	case KindFloat:
		return fmt.Sprintf("float(%g)%s", v.Float(), tagSuffix(v.Tag))
	case KindRef:
		if v.Ref == nil {
			return "null"
		}
		return fmt.Sprintf("ref(#%d %s)%s", v.Ref.ID, v.Ref.Class.Name, tagSuffix(v.Tag))
	}
	return "invalid"
}

func tagSuffix(t taint.Tag) string {
	if t.Empty() {
		return ""
	}
	return "!" + t.String()
}
