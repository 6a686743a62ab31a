package dsm

import (
	"encoding/hex"
	"math"
	"testing"

	"tinman/internal/taint"
	"tinman/internal/vm"
	"tinman/internal/vm/asm"
)

// floatBits are the float edge cases whose bits must survive the DSM:
// -0.0, +Inf, -Inf, a NaN with a payload, and an ordinary value.
var floatBits = []uint64{0x8000000000000000, 0x7ff0000000000000, 0xfff0000000000000, 0x7ff80000deadbeef, 0x4004000000000000}

// TestFloatWireBytes pins a float's wire form: a migration carrying it as
// the result, a register, an array element and a field encodes to the
// bytes the codec produced when vm.Value still kept a separate float64
// (8 little-endian bits after kind, mask and tag).
func TestFloatWireBytes(t *testing.T) {
	want := map[uint64]string{
		0x8000000000000000: "0201000000000200000000000000000080010143016d000001020000000000000000008002030f6a6176612f6c616e672f417272617900000100000102000000000000000000800503426f780000000000010200000000000000000080",
		0x7ff0000000000000: "020100000000020000000000000000f07f010143016d000001020000000000000000f07f02030f6a6176612f6c616e672f4172726179000001000001020000000000000000f07f0503426f78000000000001020000000000000000f07f",
		0xfff0000000000000: "020100000000020000000000000000f0ff010143016d000001020000000000000000f0ff02030f6a6176612f6c616e672f4172726179000001000001020000000000000000f0ff0503426f78000000000001020000000000000000f0ff",
		0x7ff80000deadbeef: "020100000000020000efbeadde0000f87f010143016d000001020000efbeadde0000f87f02030f6a6176612f6c616e672f4172726179000001000001020000efbeadde0000f87f0503426f78000000000001020000efbeadde0000f87f",
		0x4004000000000000: "0201000000000200000000000000000440010143016d000001020000000000000000044002030f6a6176612f6c616e672f417272617900000100000102000000000000000004400503426f780000000000010200000000000000000440",
	}
	for _, bits := range floatBits {
		v := ValueState{Kind: uint8(vm.KindFloat), Int: vm.FloatVal(math.Float64frombits(bits)).Int}
		m := &Migration{Seq: 1, Result: v,
			Frames: []FrameState{{Class: "C", Method: "m", Regs: []ValueState{v}}},
			Objects: []ObjectState{{ID: 3, Class: "java/lang/Array", IsArr: true, Elems: []ValueState{v}},
				{ID: 5, Class: "Box", Fields: []ValueState{v}}}}
		if got := hex.EncodeToString(m.Encode()); got != want[bits] {
			t.Errorf("%016x: wire bytes\n  %s\nwant\n  %s", bits, got, want[bits])
		}
	}
}

// TestFloatBitsSurviveMigration sends the float edge cases from a device
// endpoint to a node endpoint in a register, a field and an array element
// and checks every bit arrives.
func TestFloatBitsSurviveMigration(t *testing.T) {
	const src = `
class Box
  field f
  method hold 1 2
    return r0
  end
end`
	for _, bits := range floatBits {
		x := vm.FloatVal(math.Float64frombits(bits))
		var ends [2]*Endpoint
		for i, side := range []Side{DeviceSide, NodeSide} {
			prog, err := asm.Assemble("box", src)
			if err != nil {
				t.Fatal(err)
			}
			m := vm.New(vm.Config{Program: prog, Heap: vm.NewHeap(uint64(i+1), 2), Policy: taint.Full})
			ends[i] = NewEndpoint(side, m, nil)
		}
		dev := ends[0].VM
		box := dev.Heap.Alloc(dev.Program.Class("Box"))
		box.Fields[0] = x
		arr := dev.Heap.AllocArray(dev.ArrayClass(), 1)
		arr.Elems[0] = x
		th, err := dev.NewThread(dev.Program.Method("Box", "hold"), x)
		if err != nil {
			t.Fatal(err)
		}
		mig, err := ends[0].CaptureMigration(th, vm.StopMigrateTaint)
		if err != nil {
			t.Fatal(err)
		}
		wire, err := DecodeMigration(mig.Encode())
		if err != nil {
			t.Fatal(err)
		}
		nodeTh, err := ends[1].ApplyMigration(wire)
		if err != nil {
			t.Fatal(err)
		}
		heap := ends[1].VM.Heap
		for what, v := range map[string]vm.Value{
			"register": nodeTh.Frames[0].Regs[0],
			"field":    heap.Get(box.ID).Fields[0],
			"element":  heap.Get(arr.ID).Elems[0],
		} {
			if v.Kind != vm.KindFloat || uint64(v.Int) != bits {
				t.Errorf("%016x: %s arrived as %v bits %016x", bits, what, v.Kind, uint64(v.Int))
			}
		}
	}
}
