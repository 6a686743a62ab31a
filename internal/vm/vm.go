package vm

import (
	"fmt"

	"tinman/internal/taint"
)

// StopReason says why Thread.Run returned.
type StopReason uint8

const (
	// StopDone means the outermost method returned; Thread.Result is set.
	StopDone StopReason = iota
	// StopMigrateTaint means a tainted placeholder was touched (heap→stack
	// or tainted heap→heap) and the hook requested migration to the trusted
	// node (§3.1). The PC points at the triggering instruction so the other
	// endpoint re-executes it.
	StopMigrateTaint
	// StopMigrateNative means the next instruction is a native call this
	// endpoint must not run (non-offloadable I/O on the trusted node).
	StopMigrateNative
	// StopMigrateLock means the thread needs a monitor owned by the other
	// endpoint (the happens-before case in Table 3's github row).
	StopMigrateLock
	// StopMigrateIdle means no cor was accessed for the configured window;
	// the trusted node sends the thread home (§3.1 case 1).
	StopMigrateIdle
	// StopLimit means the Run instruction budget was exhausted.
	StopLimit
)

var stopNames = [...]string{
	StopDone: "done", StopMigrateTaint: "migrate-taint",
	StopMigrateNative: "migrate-native", StopMigrateLock: "migrate-lock",
	StopMigrateIdle: "migrate-idle", StopLimit: "limit",
}

func (s StopReason) String() string {
	if int(s) < len(stopNames) {
		return stopNames[s]
	}
	return fmt.Sprintf("StopReason(%d)", uint8(s))
}

// IsMigrate reports whether the stop requests a thread migration.
func (s StopReason) IsMigrate() bool {
	return s == StopMigrateTaint || s == StopMigrateNative || s == StopMigrateLock || s == StopMigrateIdle
}

// NativeFunc is a Go implementation of a native method. Natives receive the
// thread (for heap access) and the argument values. The args slice is only
// valid for the duration of the call — the interpreter reuses its backing
// array across native calls — so implementations that need the values later
// must copy them out.
type NativeFunc func(t *Thread, args []Value) (Value, error)

// NativeDef registers a native method. Offloadable natives may run on either
// endpoint; non-offloadable ones (I/O, sensors) pin execution to the device,
// or — for the SSL send path — hand off to TinMan's session-injection
// machinery.
type NativeDef struct {
	Name        string
	Offloadable bool
	Fn          NativeFunc
}

// Hooks let the offloading engine observe and steer execution. All hooks are
// optional; a nil hook never migrates.
type Hooks struct {
	// OnTaintedAccess fires when tainted data is read heap→stack or combined
	// heap→heap. Returning true stops the thread with StopMigrateTaint.
	OnTaintedAccess func(tag taint.Tag, ev taint.Event) bool
	// OnMonitorEnter fires on monenter. Returning true stops the thread
	// with StopMigrateLock (the lock lives on the other endpoint).
	OnMonitorEnter func(o *Object) bool
	// OnMonitorExit fires on monexit, letting the offload engine release
	// the lock in its endpoint-pair lock table.
	OnMonitorExit func(o *Object)
	// NativeGate fires before a native call. Returning true stops the
	// thread with StopMigrateNative.
	NativeGate func(def *NativeDef) bool
	// OnInvoke fires on every method invocation (profilers attach here).
	OnInvoke func(m *Method)
	// OnRunStats fires once per Thread.Run with the instruction and call
	// deltas of that burst and the stop reason. It hangs off the single-exit
	// Run wrapper, not the dispatch loop, so when unset the interpreter pays
	// one nil check per Run — nothing per instruction (the Fig 13 guard
	// pins this).
	OnRunStats func(instrs, calls uint64, stop StopReason)
}

// Config assembles a VM.
type Config struct {
	Program *Program
	Heap    *Heap
	Policy  taint.Policy
	// CollectStats enables per-class propagation counters (small overhead;
	// benchmarks measuring tainting cost leave it off).
	CollectStats bool
	// CorIdleWindow, when positive, stops the thread with StopMigrateIdle
	// after that many instructions without a tainted access. The trusted
	// node sets it; the device leaves it zero.
	CorIdleWindow uint64
	// SlowPath disables link-time resolution and inline caches, forcing the
	// interpreter through the symbolic lookup paths on every instruction.
	// It exists for the differential-equivalence tests, which pin that the
	// linked fast paths preserve results, taint tags, counters, and offload
	// triggers exactly; production VMs leave it false.
	SlowPath bool
	// NoFastPath disables the static-analysis fast path (taintflow.go +
	// interp_fast.go): every frame runs on the tracked loop as before the
	// analysis existed. The differential harness compares NoFastPath
	// against the default to pin that partial instrumentation is
	// behavior-preserving; `tinman-bench -analyze=off` measures it.
	NoFastPath bool
}

// VM executes programs over a heap under a taint policy. A VM is one
// endpoint's execution engine; TinMan pairs a device VM with a trusted-node
// VM over the DSM.
type VM struct {
	Program *Program
	Heap    *Heap
	Policy  taint.Policy
	Hooks   Hooks

	// Counters tallies propagation classes when CollectStats is set.
	Counters     taint.Counters
	CollectStats bool

	// Instrs counts executed instructions (the compute-cost model input);
	// Calls counts method invocations (Table 3's offloaded-code metric).
	Instrs uint64
	Calls  uint64
	// FastInstrs counts the subset of Instrs executed by the uninstrumented
	// fast-path loop — the partial-instrumentation engagement metric
	// (always ≤ Instrs; zero with NoFastPath or an unanalyzed program).
	FastInstrs uint64

	corIdleWindow uint64
	sinceTainted  uint64

	natives map[string]*NativeDef

	stringClass *Class
	arrayClass  *Class

	trackH2H, trackH2S, trackS2S, trackS2H bool
	// tracking is true for any policy other than Off: frames then carry
	// shadow tag arrays (the TaintDroid design of storing taints adjacent
	// to registers), which is where tainting's runtime cost comes from.
	tracking bool
	// slowPath mirrors Config.SlowPath (reference interpreter).
	slowPath bool
	// fastEnabled gates the uninstrumented fast-path loop: the program must
	// be analyzed, and neither SlowPath nor NoFastPath set. The trusted
	// node's cor-idle window needs a per-instruction check the fast loop
	// deliberately lacks, so it also disables it.
	fastEnabled bool
}

// New creates a VM. The program must be sealed.
func New(cfg Config) *VM {
	if cfg.Program == nil {
		panic("vm: nil program")
	}
	if cfg.Heap == nil {
		panic("vm: nil heap")
	}
	v := &VM{
		Program:       cfg.Program,
		Heap:          cfg.Heap,
		Policy:        cfg.Policy,
		CollectStats:  cfg.CollectStats,
		corIdleWindow: cfg.CorIdleWindow,
		slowPath:      cfg.SlowPath,
		natives:       make(map[string]*NativeDef),
		trackH2H:      cfg.Policy.Tracks(taint.HeapToHeap),
		trackH2S:      cfg.Policy.Tracks(taint.HeapToStack),
		trackS2S:      cfg.Policy.Tracks(taint.StackToStack),
		trackS2H:      cfg.Policy.Tracks(taint.StackToHeap),
	}
	v.tracking = v.trackH2H || v.trackH2S || v.trackS2S || v.trackS2H
	v.fastEnabled = !cfg.SlowPath && !cfg.NoFastPath && cfg.CorIdleWindow == 0 &&
		cfg.Program.Analyzed()
	// Built-in classes exist on every VM so both endpoints resolve them
	// identically during DSM sync.
	v.stringClass = NewClass("java/lang/String")
	v.arrayClass = NewClass("java/lang/Array")
	return v
}

// Tracking reports whether any propagation class is instrumented (false
// only for the Off baseline).
func (v *VM) Tracking() bool { return v.tracking }

// StringClass returns the built-in string class.
func (v *VM) StringClass() *Class { return v.stringClass }

// ArrayClass returns the built-in array class.
func (v *VM) ArrayClass() *Class { return v.arrayClass }

// ClassByName resolves built-ins first, then program classes.
func (v *VM) ClassByName(name string) *Class {
	switch name {
	case v.stringClass.Name:
		return v.stringClass
	case v.arrayClass.Name:
		return v.arrayClass
	}
	return v.Program.Class(name)
}

// RegisterNative installs a native method implementation.
func (v *VM) RegisterNative(def *NativeDef) {
	if def.Fn == nil {
		panic(fmt.Sprintf("vm: native %s has no implementation", def.Name))
	}
	if _, dup := v.natives[def.Name]; dup {
		panic(fmt.Sprintf("vm: native %s registered twice", def.Name))
	}
	v.natives[def.Name] = def
}

// Native returns a registered native, or nil.
func (v *VM) Native(name string) *NativeDef { return v.natives[name] }

// NewString allocates an untainted string object.
func (v *VM) NewString(s string) *Object {
	return v.Heap.AllocString(v.stringClass, s, taint.None)
}

// NewTaintedString allocates a string carrying the given tag — this is how
// the framework materializes cor placeholders on the device and cor
// plaintext on the trusted node.
func (v *VM) NewTaintedString(s string, tag taint.Tag) *Object {
	return v.Heap.AllocString(v.stringClass, s, tag)
}

// ResetIdle restarts the cor-idle window (called after migration).
func (v *VM) ResetIdle() { v.sinceTainted = 0 }

// Frame is one activation record. Under a tracking policy, Tags is the
// shadow taint store parallel to Regs (nil under the Off policy — the
// untainted baseline touches no taint memory at all).
type Frame struct {
	Method *Method
	PC     int
	Regs   []Value
	Tags   []taint.Tag
	// RetReg is the caller register that receives this frame's return value.
	RetReg int

	// fastOK marks a frame born taint-free in a fast-eligible method: the
	// interpreter may run it on the uninstrumented fast-path loop, whose
	// invariant is that every register shadow tag of such a frame is None.
	// deopted is set the first time taint reaches the frame (a guard trip,
	// a tainted return value); the frame then runs on the tracked loop for
	// the rest of its life. Frames rebuilt by the DSM or rebound across
	// endpoints leave both false — conservatively tracked.
	fastOK  bool
	deopted bool
	// tagsDirty is set when a pooled frame last ran tracked: some slot of
	// its Tags backing array may then be non-None. A frame that ran clean
	// left them all None, so getFrame skips clearing them.
	tagsDirty bool
}

// Tag returns register i's shadow tag (None when untracked).
func (f *Frame) Tag(i int) taint.Tag {
	if f.Tags == nil {
		return taint.None
	}
	return f.Tags[i]
}

// Thread is a logical thread: a stack of frames bound to a VM. After a
// migration the same Thread object continues on the other endpoint's VM
// (the DSM rebinds it).
type Thread struct {
	VM     *VM
	Frames []*Frame
	Result Value
	// MaxInstrs bounds a single Run call as a runaway guard; 0 means the
	// default of 500M instructions.
	MaxInstrs uint64

	// framePool recycles frames popped by returns so a call-heavy workload
	// allocates each frame shape once per thread instead of once per call
	// (regs and tag slices are re-sliced and zeroed on reuse, the tags only
	// of a frame that ran tracked). Popped frames are
	// unreachable from the DSM — migration captures only the live stack —
	// which is what makes the recycling safe.
	framePool []*Frame
	// nativeArgs is the reusable argument buffer for native calls (see
	// NativeFunc on its lifetime).
	nativeArgs []Value
	// leafRegs is the register window of frame-free leaf calls (runLeaf):
	// integer data only, so its stores are single words.
	leafRegs [maxLeafRegs]int64
}

// NewThread prepares a thread that will execute method with the given
// arguments.
func (v *VM) NewThread(m *Method, args ...Value) (*Thread, error) {
	if m == nil {
		return nil, fmt.Errorf("vm: nil method")
	}
	if len(args) != m.NArgs {
		return nil, fmt.Errorf("vm: %s takes %d args, got %d", m.FullName(), m.NArgs, len(args))
	}
	f := newFrame(m, v.tracking)
	copy(f.Regs, args)
	// Value.Tag is meaningful at API boundaries: seed the shadow store from
	// the incoming arguments.
	if v.tracking {
		for i, a := range args {
			f.Tags[i] = a.Tag
		}
	}
	// Entry guard of the fast path: externally supplied taint (a cor
	// placeholder argument, a tainted password) forces the tracked loop no
	// matter what the static analysis proved.
	if v.fastEnabled && m.verdict.FastEligible() {
		clean := true
		for _, a := range args {
			if !a.Tag.Empty() {
				clean = false
				break
			}
		}
		f.fastOK = clean
	}
	return &Thread{VM: v, Frames: []*Frame{f}}, nil
}

func newFrame(m *Method, tracking bool) *Frame {
	regs := make([]Value, m.NRegs)
	for i := range regs {
		regs[i] = IntVal(0)
	}
	f := &Frame{Method: m, Regs: regs}
	if tracking {
		f.Tags = make([]taint.Tag, m.NRegs)
	}
	return f
}

// getFrame produces the callee frame of a call of m whose arguments are
// the caller registers args: they are copied into its first registers,
// and the others read int(0) and every shadow tag (under a tracking
// policy) None, exactly as newFrame's would. It reuses a pooled frame when
// one is available, writing only the registers past the arguments and
// clearing the tags only of a frame that last ran tracked: a frame that
// ran clean left them all None. The caller sets RetReg and pushes it.
func (t *Thread) getFrame(m *Method, args []int, caller []Value, tracking bool) *Frame {
	var f *Frame
	if n := len(t.framePool); n > 0 {
		f = t.framePool[n-1]
		t.framePool[n-1] = nil
		t.framePool = t.framePool[:n-1]
		f.PC, f.fastOK, f.deopted = 0, false, false
	} else {
		f = &Frame{}
	}
	f.Method = m
	if cap(f.Regs) >= m.NRegs {
		f.Regs = f.Regs[:m.NRegs]
	} else {
		f.Regs = make([]Value, m.NRegs)
	}
	for i, r := range args {
		f.Regs[i] = caller[r]
	}
	rest := f.Regs[len(args):]
	for i := range rest {
		rest[i] = IntVal(0)
	}
	switch {
	case !tracking:
		f.Tags = nil
	case cap(f.Tags) >= m.NRegs:
		f.Tags = f.Tags[:m.NRegs]
		if f.tagsDirty {
			clear(f.Tags[:cap(f.Tags)])
			f.tagsDirty = false
		}
	default:
		f.Tags = make([]taint.Tag, m.NRegs)
		f.tagsDirty = false
	}
	return f
}

// putFrame returns a popped frame to the pool. Only the interpreter calls
// it, and only for frames no longer on the stack.
func (t *Thread) putFrame(f *Frame) {
	f.Method = nil
	if !f.fastOK || f.deopted {
		f.tagsDirty = true
	}
	t.framePool = append(t.framePool, f)
}

// Run executes until the thread finishes, migrates, or exhausts its budget
// (see interp.go for the dispatch loop). The wrapper is the interpreter's
// single exit: it reports each burst's instruction/call deltas through the
// optional Hooks.OnRunStats without touching the ~50 early returns inside
// the loop.
func (t *Thread) Run() (StopReason, error) {
	hook := t.VM.Hooks.OnRunStats
	if hook == nil {
		return t.run()
	}
	i0, c0 := t.VM.Instrs, t.VM.Calls
	stop, err := t.run()
	hook(t.VM.Instrs-i0, t.VM.Calls-c0, stop)
	return stop, err
}

// Depth returns the current frame-stack depth.
func (t *Thread) Depth() int { return len(t.Frames) }

// Top returns the innermost frame, or nil if the thread finished.
func (t *Thread) Top() *Frame {
	if len(t.Frames) == 0 {
		return nil
	}
	return t.Frames[len(t.Frames)-1]
}

// Rebind moves the thread to another VM (after DSM migration). Frame
// methods are re-resolved against the target VM's program by name, since
// Method pointers are endpoint-local.
func (t *Thread) Rebind(v *VM) error {
	for _, f := range t.Frames {
		m := v.Program.Method(f.Method.Class.Name, f.Method.Name)
		if m == nil {
			return fmt.Errorf("vm: rebind: method %s not found in target program", f.Method.FullName())
		}
		f.Method = m
		// A migrated-in frame may carry taint the source endpoint tracked;
		// run it on the tracked loop (the target program's analysis proves
		// nothing about this frame's current register state).
		f.fastOK = false
		f.deopted = false
	}
	t.VM = v
	return nil
}

// CheckStack reports whether frames, outermost first, form a stack the
// interpreter can run: at most its frame limit deep; every frame with its
// method's register count (and as many shadow tags, when it has them) and
// a PC on one of the method's instructions; every RetReg naming a register
// of the caller below it. Stacks the interpreter builds always pass. The
// DSM refuses a migrated stack that does not, since a peer's bytes could
// otherwise send the interpreter past the end of a register file.
func CheckStack(frames []*Frame) error {
	if len(frames) > maxFrames {
		return fmt.Errorf("vm: stack of %d frames exceeds the limit of %d", len(frames), maxFrames)
	}
	for i, f := range frames {
		m := f.Method
		if m == nil {
			return fmt.Errorf("vm: frame %d has no method", i)
		}
		if len(f.Regs) != m.NRegs || (f.Tags != nil && len(f.Tags) != m.NRegs) {
			return fmt.Errorf("vm: frame %d %s has %d registers, want %d", i, m.FullName(), len(f.Regs), m.NRegs)
		}
		if f.PC < 0 || f.PC >= len(m.Code) {
			return fmt.Errorf("vm: frame %d %s pc %d out of range [0,%d)", i, m.FullName(), f.PC, len(m.Code))
		}
		if i > 0 && (f.RetReg < 0 || f.RetReg >= len(frames[i-1].Regs)) {
			return fmt.Errorf("vm: frame %d %s returns into r%d of a %d-register caller",
				i, m.FullName(), f.RetReg, len(frames[i-1].Regs))
		}
	}
	return nil
}

// errAt decorates runtime errors with source position.
func errAt(f *Frame, format string, args ...any) error {
	return fmt.Errorf("vm: %s@%d: %s", f.Method.FullName(), f.PC, fmt.Sprintf(format, args...))
}
