package node

import (
	"context"
	"errors"
	"testing"

	"tinman/internal/dsm"
	"tinman/internal/vm"
)

// workSrc is the login apps' busy-loop pair: a leaf and its caller.
const workSrc = `
class Work
  method tiny 1 5
    const r1, 3
    add r2, r0, r1
    mul r3, r2, r2
    xor r4, r3, r1
    return r4
  end
  method workLoop 1 6
    const r1, 0
  loop:
    ifge r1, r0, done
    invoke r2, Work.tiny, r1
    const r3, 1
    add r1, r1, r3
    goto loop
  done:
    return r1
  end
end`

// TestOffloadRefusesUnrunnableStack: an offload whose migrated stack the
// node's interpreter could not run is a bad request, answered without
// running it, and the node goes on serving well-formed offloads.
func TestOffloadRefusesUnrunnableStack(t *testing.T) {
	ctx := context.Background()
	svc := New(Options{})
	dev := newDeviceHalf(t, svc, "dev-1", "login", workSrc)
	dev.install(t, svc, workSrc)

	frame := func(method string, pc, retReg, n int) dsm.FrameState {
		regs := make([]dsm.ValueState, n)
		for i := range regs {
			regs[i].Kind = uint8(vm.KindInt)
		}
		return dsm.FrameState{Class: "Work", Method: method, PC: pc, RetReg: retReg, Regs: regs}
	}
	offload := func(frames ...dsm.FrameState) error {
		mig := &dsm.Migration{Seq: 1, Reason: vm.StopMigrateTaint, Frames: frames,
			Result: dsm.ValueState{Kind: uint8(vm.KindRef)}}
		_, err := svc.Offload(ctx, "dev-1", "login", mig.Encode())
		return err
	}
	deep := make([]dsm.FrameState, 1025)
	for i := range deep {
		deep[i] = frame("workLoop", 3, 2, 6)
	}
	for name, frames := range map[string][]dsm.FrameState{
		"no registers":   {frame("tiny", 0, 0, 0)},
		"ret reg 99":     {frame("workLoop", 3, 0, 6), frame("tiny", 0, 99, 5)},
		"pc at end":      {frame("tiny", 5, 0, 5)},
		"over the limit": deep,
	} {
		if err := offload(frames...); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want a bad request", name, err)
		}
	}
	if err := offload(frame("workLoop", 3, 0, 6), frame("tiny", 0, 2, 5)); err != nil {
		t.Fatalf("well-formed stack after the refusals: %v", err)
	}
}
