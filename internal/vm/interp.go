package vm

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"

	"tinman/internal/taint"
)

// maxFrames bounds recursion depth.
const maxFrames = 1024

// defaultMaxInstrs bounds a single Run call.
const defaultMaxInstrs = 500_000_000

// Run executes the thread until it finishes, requests migration, or errors.
// On a migrate stop the PC of the top frame still points at the instruction
// that triggered the stop, so the peer endpoint re-executes it.
//
// Taint bookkeeping follows the TaintDroid design the paper builds on:
// every register has a shadow tag slot (Frame.Tags) and every heap slot a
// shadow tag (Object.FieldTags/ElemTags). A policy pays for exactly the
// propagation classes it tracks — the Off baseline touches no tag memory,
// the Asymmetric device skips the stack-involved classes, and the Full
// trusted node propagates everything. This is where Fig 13's measured
// overhead differences come from.
//
// The dispatch loop is organized for speed (the numbers behind Fig 13 are
// real interpreter time):
//
//   - frame state (pc, code, regs, tags) lives in locals that are reloaded
//     only on a frame switch and written back only when control leaves the
//     loop, instead of per instruction;
//   - policy checks are hoisted into booleans computed once per Run;
//   - symbol operands resolve through link-time pre-resolution and per-site
//     monomorphic inline caches (see link.go), falling back to the original
//     map lookups on a miss — or always, under Config.SlowPath;
//   - returned frames are recycled through a per-thread pool, and native
//     argument slices reuse one scratch buffer.
//
// VM.Instrs and the top frame's PC are therefore exact when Run returns and
// before any native call, but not observed mid-loop.
//
// When the program's taint pre-analysis is in effect (vm.fastEnabled), Run
// alternates between two loops: runTracked below — the fully instrumented
// interpreter — and runFast (interp_fast.go), the uninstrumented loop for
// frames born taint-free in analysis-approved methods. Control switches at
// frame boundaries: pushing a fast-eligible frame with clean argument tags
// hands off to the fast loop; a deoptimization guard or a push of tracked
// code hands back. Both loops share the one instruction budget, so
// StopLimit lands on exactly the same instruction either way. Propagation
// counters (Config.CollectStats) are runTracked's alone: a VM that counts
// never enables the fast loop.
func (t *Thread) Run() (StopReason, error) {
	v := t.VM
	max := t.MaxInstrs
	if max == 0 {
		max = defaultMaxInstrs
	}
	if len(t.Frames) == 0 {
		return StopDone, nil
	}
	if !v.fastEnabled {
		stop, _, _, err := t.runTracked(max)
		return stop, err
	}
	var used uint64
	for {
		f := t.Frames[len(t.Frames)-1]
		var stop StopReason
		var hand bool
		var n uint64
		var err error
		if f.fastOK && !f.deopted {
			stop, hand, n, err = t.runFast(max - used)
		} else {
			stop, hand, n, err = t.runTracked(max - used)
		}
		used += n
		if err != nil || !hand {
			return stop, err
		}
	}
}

// runTracked is the fully instrumented dispatch loop, bounded by budget
// instructions. It returns the consumed instruction count and, when the
// fast path is enabled, may return handoff=true with the thread's top
// frame positioned for the uninstrumented loop (see Run above); every
// other return is final for this Run.
func (t *Thread) runTracked(budget uint64) (StopReason, bool, uint64, error) {
	v := t.VM
	max := budget
	if len(t.Frames) == 0 {
		return StopDone, false, 0, nil
	}

	// executed counts instructions this burst; flushed is the prefix
	// already folded into v.Instrs. The difference is flushed at every exit
	// and before native calls.
	var executed, flushed uint64
	fastHand := v.fastEnabled
	tracking := v.tracking
	// observe is false only for the untainted baseline with no hooks: then
	// heap reads skip taint observation entirely.
	observe := tracking || v.collectStats || v.Hooks.OnTaintedAccess != nil
	s2s, s2h, h2s, h2h := v.trackS2S, v.trackS2H, v.trackH2S, v.trackH2H
	stats := v.collectStats
	countS2S := s2s && stats
	countS2H := s2h && stats
	corIdle := v.corIdleWindow > 0
	idleWin := v.corIdleWindow
	slow := v.slowPath

	f := t.Frames[len(t.Frames)-1]
	pc := f.PC
	code := f.Method.Code
	regs := f.Regs
	tags := f.Tags

	for {
		if pc < 0 || pc >= len(code) {
			return t.failAt(f, pc, executed-flushed, "pc out of range (len=%d)", len(code))
		}
		if executed >= max {
			f.PC = pc
			v.Instrs += executed - flushed
			return StopLimit, false, executed, nil
		}
		in := &code[pc]
		executed++

		// cor-idle window (§3.1 migrate-back case 1), trusted node only.
		if corIdle {
			v.sinceTainted++
			if v.sinceTainted > idleWin {
				v.sinceTainted = 0
				f.PC = pc
				v.Instrs += executed - flushed
				return StopMigrateIdle, false, executed, nil
			}
		}

		npc := pc + 1

		switch in.Op {
		case OpNop:

		case OpConst:
			regs[in.A] = IntVal(in.Imm)
			if s2s {
				tags[in.A] = taint.None
			}
		case OpConstF:
			regs[in.A] = FloatVal(in.F)
			if s2s {
				tags[in.A] = taint.None
			}
		case OpConstStr:
			// Per-site interning: the literal's string object is allocated
			// once per VM and reused while it stays untainted. Anything
			// that taints or cor-binds the interned object (taintset, a
			// synced-back tag) forces a fresh untainted copy — the literal
			// semantics are copy-on-taint.
			var o *Object
			if !slow && in.icVM == v {
				if c := in.icStr; c != nil && c.Tag == taint.None && c.CorID == "" {
					o = c
				}
			}
			if o == nil {
				o = v.NewString(in.Sym)
				if !slow {
					in.icVM = v
					in.icStr = o
				}
			}
			regs[in.A] = RefVal(o)
			if s2s {
				tags[in.A] = taint.None
			}

		case OpMove:
			regs[in.A] = regs[in.B]
			if s2s {
				tags[in.A] = tags[in.B]
				if stats {
					v.Counters.Add(taint.StackToStack)
				}
			}

		case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr, OpCmp:
			b, c := regs[in.B].Int, regs[in.C].Int
			var r int64
			switch in.Op {
			case OpAdd:
				r = b + c
			case OpSub:
				r = b - c
			case OpMul:
				r = b * c
			case OpDiv:
				if c == 0 {
					return t.failAt(f, pc, executed-flushed, "division by zero")
				}
				r = b / c
			case OpRem:
				if c == 0 {
					return t.failAt(f, pc, executed-flushed, "division by zero")
				}
				r = b % c
			case OpAnd:
				r = b & c
			case OpOr:
				r = b | c
			case OpXor:
				r = b ^ c
			case OpShl:
				r = b << uint(c&63)
			case OpShr:
				r = b >> uint(c&63)
			case OpCmp:
				switch {
				case b < c:
					r = -1
				case b > c:
					r = 1
				}
			}
			regs[in.A] = IntVal(r)
			if s2s {
				tags[in.A] = tags[in.B].Union(tags[in.C])
				if countS2S {
					v.Counters.Add(taint.StackToStack)
				}
			}

		case OpNeg, OpNot:
			r := -regs[in.B].Int
			if in.Op == OpNot {
				r = ^regs[in.B].Int
			}
			regs[in.A] = IntVal(r)
			if s2s {
				tags[in.A] = tags[in.B]
				if countS2S {
					v.Counters.Add(taint.StackToStack)
				}
			}

		case OpAddF, OpSubF, OpMulF, OpDivF, OpCmpF:
			b, c := regs[in.B].Float(), regs[in.C].Float()
			var res Value
			switch in.Op {
			case OpAddF:
				res = FloatVal(b + c)
			case OpSubF:
				res = FloatVal(b - c)
			case OpMulF:
				res = FloatVal(b * c)
			case OpDivF:
				res = FloatVal(b / c)
			case OpCmpF:
				var r int64
				switch {
				case b < c:
					r = -1
				case b > c:
					r = 1
				}
				res = IntVal(r)
			}
			regs[in.A] = res
			if s2s {
				tags[in.A] = tags[in.B].Union(tags[in.C])
				if countS2S {
					v.Counters.Add(taint.StackToStack)
				}
			}

		case OpNegF:
			regs[in.A] = FloatVal(-regs[in.B].Float())
			if s2s {
				tags[in.A] = tags[in.B]
			}

		case OpI2F:
			regs[in.A] = FloatVal(float64(regs[in.B].Int))
			if s2s {
				tags[in.A] = tags[in.B]
			}
		case OpF2I:
			regs[in.A] = IntVal(int64(regs[in.B].Float()))
			if s2s {
				tags[in.A] = tags[in.B]
			}

		case OpIfEq:
			if regs[in.B].Int == regs[in.C].Int {
				npc = int(in.Imm)
			}
		case OpIfNe:
			if regs[in.B].Int != regs[in.C].Int {
				npc = int(in.Imm)
			}
		case OpIfLt:
			if regs[in.B].Int < regs[in.C].Int {
				npc = int(in.Imm)
			}
		case OpIfLe:
			if regs[in.B].Int <= regs[in.C].Int {
				npc = int(in.Imm)
			}
		case OpIfGt:
			if regs[in.B].Int > regs[in.C].Int {
				npc = int(in.Imm)
			}
		case OpIfGe:
			if regs[in.B].Int >= regs[in.C].Int {
				npc = int(in.Imm)
			}
		case OpIfZ:
			b := regs[in.B]
			if (b.Kind == KindRef && b.Ref == nil) || (b.Kind != KindRef && b.Int == 0) {
				npc = int(in.Imm)
			}
		case OpIfNz:
			b := regs[in.B]
			if (b.Kind == KindRef && b.Ref != nil) || (b.Kind != KindRef && b.Int != 0) {
				npc = int(in.Imm)
			}
		case OpGoto:
			npc = int(in.Imm)

		case OpNew:
			var c *Class
			if !slow {
				c = in.icClass
			}
			if c == nil {
				c = v.ClassByName(in.Sym)
				if c == nil {
					return t.failAt(f, pc, executed-flushed, "unknown class %s", in.Sym)
				}
				// Cache only program classes: the string/array built-ins
				// are per-VM objects and must stay symbolic.
				if !slow && c != v.stringClass && c != v.arrayClass {
					in.icClass = c
				}
			}
			regs[in.A] = RefVal(v.Heap.Alloc(c))
			if s2s {
				tags[in.A] = taint.None
			}

		case OpNewArr:
			n := regs[in.B].Int
			if n < 0 || n > 1<<24 {
				return t.failAt(f, pc, executed-flushed, "bad array length %d", n)
			}
			regs[in.A] = RefVal(v.Heap.AllocArray(v.arrayClass, int(n)))
			if s2s {
				tags[in.A] = taint.None
			}

		case OpArrLen:
			o := regs[in.B].Ref
			if o == nil {
				return t.failAt(f, pc, executed-flushed, "arrlen of null")
			}
			regs[in.A] = IntVal(int64(len(o.Elems)))
			if s2s {
				tags[in.A] = taint.None
			}

		case OpAGet:
			o := regs[in.B].Ref
			if o == nil {
				return t.failAt(f, pc, executed-flushed, "aget from null")
			}
			ix := regs[in.C].Int
			if ix < 0 || ix >= int64(len(o.Elems)) {
				return t.failAt(f, pc, executed-flushed, "array index %d out of range [0,%d)", ix, len(o.Elems))
			}
			regs[in.A] = o.Elems[ix]
			if observe {
				tag := o.ElemTag(int(ix)).Union(o.Tag)
				if t.heapRead(tag) {
					f.PC = pc
					v.Instrs += executed - flushed
					return StopMigrateTaint, false, executed, nil
				}
				if h2s {
					tags[in.A] = tag
				}
			}

		case OpAPut:
			o := regs[in.B].Ref
			if o == nil {
				return t.failAt(f, pc, executed-flushed, "aput to null")
			}
			ix := regs[in.C].Int
			if ix < 0 || ix >= int64(len(o.Elems)) {
				return t.failAt(f, pc, executed-flushed, "array index %d out of range [0,%d)", ix, len(o.Elems))
			}
			o.Elems[ix] = regs[in.A]
			if s2h {
				o.SetElemTag(int(ix), tags[in.A])
				if countS2H {
					v.Counters.Add(taint.StackToHeap)
				}
			}
			v.Heap.MarkDirty(o)

		case OpIGet:
			o := regs[in.B].Ref
			if o == nil {
				return t.failAt(f, pc, executed-flushed, "iget %s from null", in.Sym)
			}
			// Monomorphic inline cache: field slot resolution keyed on the
			// receiver class, refilled from FieldIndex on a miss.
			var fi int
			if !slow && in.icClass == o.Class {
				fi = in.icSlot
			} else {
				fi = o.Class.FieldIndex(in.Sym)
				if fi < 0 {
					return t.failAt(f, pc, executed-flushed, "class %s has no field %s", o.Class.Name, in.Sym)
				}
				if !slow {
					in.icClass = o.Class
					in.icSlot = fi
				}
			}
			regs[in.A] = o.Fields[fi]
			if observe {
				tag := o.FieldTag(fi)
				if t.heapRead(tag) {
					f.PC = pc
					v.Instrs += executed - flushed
					return StopMigrateTaint, false, executed, nil
				}
				if h2s {
					tags[in.A] = tag
				}
			}

		case OpIPut:
			o := regs[in.B].Ref
			if o == nil {
				return t.failAt(f, pc, executed-flushed, "iput %s to null", in.Sym)
			}
			var fi int
			if !slow && in.icClass == o.Class {
				fi = in.icSlot
			} else {
				fi = o.Class.FieldIndex(in.Sym)
				if fi < 0 {
					return t.failAt(f, pc, executed-flushed, "class %s has no field %s", o.Class.Name, in.Sym)
				}
				if !slow {
					in.icClass = o.Class
					in.icSlot = fi
				}
			}
			o.Fields[fi] = regs[in.A]
			if s2h {
				o.SetFieldTag(fi, tags[in.A])
				if countS2H {
					v.Counters.Add(taint.StackToHeap)
				}
			}
			v.Heap.MarkDirty(o)

		case OpClone:
			src := regs[in.B].Ref
			if src == nil {
				return t.failAt(f, pc, executed-flushed, "clone of null")
			}
			tag := src.Tag
			var dst *Object
			switch {
			case src.IsStr:
				dst = v.Heap.AllocString(src.Class, src.Str, taint.None)
			case src.IsArr:
				dst = v.Heap.AllocArray(src.Class, len(src.Elems))
				copy(dst.Elems, src.Elems)
				if h2h && src.ElemTags != nil {
					dst.ElemTags = append([]taint.Tag(nil), src.ElemTags...)
					for _, et := range src.ElemTags {
						tag = tag.Union(et)
					}
				}
			default:
				dst = v.Heap.Alloc(src.Class)
				copy(dst.Fields, src.Fields)
				if h2h && src.FieldTags != nil {
					dst.FieldTags = append([]taint.Tag(nil), src.FieldTags...)
					for _, ft := range src.FieldTags {
						tag = tag.Union(ft)
					}
				}
			}
			if observe && t.heapCombine(tag) {
				f.PC = pc
				v.Instrs += executed - flushed
				return StopMigrateTaint, false, executed, nil
			}
			if h2h {
				dst.Tag = tag
				dst.CorID = src.CorID
			}
			regs[in.A] = RefVal(dst)
			if s2s {
				tags[in.A] = taint.None
			}

		case OpArrCopy:
			dst, src := regs[in.A].Ref, regs[in.B].Ref
			if dst == nil || src == nil {
				return t.failAt(f, pc, executed-flushed, "arrcopy with null")
			}
			n := len(src.Elems)
			if len(dst.Elems) < n {
				n = len(dst.Elems)
			}
			tag := src.Tag
			copy(dst.Elems, src.Elems[:n])
			if h2h {
				for i := 0; i < n; i++ {
					et := src.ElemTag(i)
					dst.SetElemTag(i, et)
					tag = tag.Union(et)
				}
				if stats {
					v.Counters.Add(taint.HeapToHeap)
				}
			}
			if observe && t.heapCombine(tag) {
				f.PC = pc
				v.Instrs += executed - flushed
				return StopMigrateTaint, false, executed, nil
			}
			if h2h {
				dst.Tag = dst.Tag.Union(tag)
			}
			v.Heap.MarkDirty(dst)

		case OpStrCat:
			b, c := regs[in.B], regs[in.C]
			if b.Ref == nil || c.Ref == nil {
				return t.failAt(f, pc, executed-flushed, "strcat with null")
			}
			var tag taint.Tag
			if observe {
				tag = b.Ref.Tag.Union(c.Ref.Tag).Union(f.Tag(in.B)).Union(f.Tag(in.C))
				if t.heapCombine(tag) {
					f.PC = pc
					v.Instrs += executed - flushed
					return StopMigrateTaint, false, executed, nil
				}
			}
			if tracking {
				// Instrumented path: the string fast paths Dalvik enables
				// are off under tainting (§6.1); the instrumented concat
				// copies character by character through the slow path.
				bs, cs := b.Ref.Str, c.Ref.Str
				buf := make([]byte, len(bs)+len(cs))
				for i := 0; i < len(bs); i++ {
					buf[i] = bs[i]
				}
				for i := 0; i < len(cs); i++ {
					buf[len(bs)+i] = cs[i]
				}
				newTag := taint.None
				if h2h {
					newTag = tag
				}
				regs[in.A] = RefVal(v.Heap.AllocString(v.stringClass, string(buf), newTag))
				if s2s {
					tags[in.A] = taint.None
				}
			} else {
				regs[in.A] = RefVal(v.Heap.AllocString(v.stringClass, b.Ref.Str+c.Ref.Str, taint.None))
			}

		case OpStrLen:
			o := regs[in.B].Ref
			if o == nil {
				return t.failAt(f, pc, executed-flushed, "strlen of null")
			}
			regs[in.A] = IntVal(int64(len(o.Str)))
			if observe {
				tag := f.Tag(in.B).Union(o.Tag)
				if t.heapRead(tag) {
					f.PC = pc
					v.Instrs += executed - flushed
					return StopMigrateTaint, false, executed, nil
				}
				if h2s {
					tags[in.A] = tag
				}
			}

		case OpCharAt:
			o := regs[in.B].Ref
			if o == nil {
				return t.failAt(f, pc, executed-flushed, "charat of null")
			}
			ix := regs[in.C].Int
			if ix < 0 || ix >= int64(len(o.Str)) {
				return t.failAt(f, pc, executed-flushed, "string index %d out of range [0,%d)", ix, len(o.Str))
			}
			regs[in.A] = IntVal(int64(o.Str[ix]))
			if observe {
				tag := f.Tag(in.B).Union(o.Tag)
				if t.heapRead(tag) {
					f.PC = pc
					v.Instrs += executed - flushed
					return StopMigrateTaint, false, executed, nil
				}
				if h2s {
					tags[in.A] = tag
				}
			}

		case OpStrEq:
			b, c := regs[in.B].Ref, regs[in.C].Ref
			if b == nil || c == nil {
				return t.failAt(f, pc, executed-flushed, "streq with null")
			}
			var r int64
			if b.Str == c.Str {
				r = 1
			}
			regs[in.A] = IntVal(r)
			if observe {
				tag := b.Tag.Union(c.Tag)
				if t.heapRead(tag) {
					f.PC = pc
					v.Instrs += executed - flushed
					return StopMigrateTaint, false, executed, nil
				}
				if h2s {
					tags[in.A] = tag
				}
			}

		case OpIndexOf:
			b, c := regs[in.B].Ref, regs[in.C].Ref
			if b == nil || c == nil {
				return t.failAt(f, pc, executed-flushed, "indexof with null")
			}
			regs[in.A] = IntVal(int64(strings.Index(b.Str, c.Str)))
			if observe {
				tag := b.Tag.Union(c.Tag)
				if t.heapRead(tag) {
					f.PC = pc
					v.Instrs += executed - flushed
					return StopMigrateTaint, false, executed, nil
				}
				if h2s {
					tags[in.A] = tag
				}
			}

		case OpSubstr:
			o := regs[in.B].Ref
			if o == nil {
				return t.failAt(f, pc, executed-flushed, "substr of null")
			}
			start := regs[in.C].Int
			end := in.Imm
			if end < 0 || end > int64(len(o.Str)) {
				end = int64(len(o.Str))
			}
			if start < 0 || start > end {
				return t.failAt(f, pc, executed-flushed, "substr bounds [%d,%d) of %d", start, end, len(o.Str))
			}
			var tag taint.Tag
			if observe {
				tag = f.Tag(in.B).Union(o.Tag)
				if t.heapCombine(tag) {
					f.PC = pc
					v.Instrs += executed - flushed
					return StopMigrateTaint, false, executed, nil
				}
			}
			newTag := taint.None
			if h2h {
				newTag = tag
			}
			regs[in.A] = RefVal(v.Heap.AllocString(v.stringClass, o.Str[start:end], newTag))
			if s2s {
				tags[in.A] = taint.None
			}

		case OpIntToStr:
			b := regs[in.B]
			newTag := taint.None
			if s2h {
				newTag = tags[in.B]
				if countS2H {
					v.Counters.Add(taint.StackToHeap)
				}
			}
			regs[in.A] = RefVal(v.Heap.AllocString(v.stringClass, strconv.FormatInt(b.Int, 10), newTag))
			if s2s {
				tags[in.A] = taint.None
			}

		case OpStrToInt:
			o := regs[in.B].Ref
			if o == nil {
				return t.failAt(f, pc, executed-flushed, "strtoint of null")
			}
			n, err := strconv.ParseInt(strings.TrimSpace(o.Str), 10, 64)
			if err != nil {
				n = 0
			}
			regs[in.A] = IntVal(n)
			if observe {
				tag := f.Tag(in.B).Union(o.Tag)
				if t.heapRead(tag) {
					f.PC = pc
					v.Instrs += executed - flushed
					return StopMigrateTaint, false, executed, nil
				}
				if h2s {
					tags[in.A] = tag
				}
			}

		case OpHash:
			o := regs[in.B].Ref
			if o == nil {
				return t.failAt(f, pc, executed-flushed, "hash of null")
			}
			var tag taint.Tag
			if observe {
				tag = f.Tag(in.B).Union(o.Tag)
				if t.heapCombine(tag) {
					f.PC = pc
					v.Instrs += executed - flushed
					return StopMigrateTaint, false, executed, nil
				}
			}
			sum := sha256.Sum256([]byte(o.Str))
			newTag := taint.None
			if h2h {
				newTag = tag
			}
			regs[in.A] = RefVal(v.Heap.AllocString(v.stringClass, hex.EncodeToString(sum[:]), newTag))
			if s2s {
				tags[in.A] = taint.None
			}

		case OpInvoke, OpInvokeV:
			var m *Method
			if in.Op == OpInvoke {
				// Link-time resolved target; symbolic fallback for
				// unlinked programs and the reference interpreter.
				if !slow {
					m = in.icMethod
				}
				if m == nil {
					m = v.Program.Method(in.Sym2, in.Sym)
					if m == nil {
						return t.failAt(f, pc, executed-flushed, "unknown method %s.%s", in.Sym2, in.Sym)
					}
					if !slow {
						in.icMethod = m
					}
				}
			} else {
				if len(in.Args) == 0 {
					return t.failAt(f, pc, executed-flushed, "invokev with no receiver")
				}
				recv := regs[in.Args[0]].Ref
				if recv == nil {
					return t.failAt(f, pc, executed-flushed, "invokev %s on null", in.Sym)
				}
				// Virtual dispatch through a monomorphic inline cache on
				// the receiver class.
				if !slow && in.icClass == recv.Class {
					m = in.icMethod
				} else {
					m = recv.Class.Methods[in.Sym]
					if m == nil {
						return t.failAt(f, pc, executed-flushed, "class %s has no method %s", recv.Class.Name, in.Sym)
					}
					if !slow {
						in.icClass = recv.Class
						in.icMethod = m
					}
				}
			}
			if len(in.Args) != m.NArgs {
				return t.failAt(f, pc, executed-flushed, "%s takes %d args, got %d", m.FullName(), m.NArgs, len(in.Args))
			}
			if len(t.Frames) >= maxFrames {
				return t.failAt(f, pc, executed-flushed, "stack overflow (%d frames)", maxFrames)
			}
			v.Calls++
			nf := t.getFrame(m, in.Args, regs, tracking)
			if tracking {
				for i, r := range in.Args {
					nf.Tags[i] = tags[r]
				}
			}
			nf.RetReg = in.A
			f.PC = npc
			t.Frames = append(t.Frames, nf)
			// Fast-path handoff: a frame born with clean argument tags in an
			// analysis-approved method runs on the uninstrumented loop.
			if fastHand && m.verdict.FastEligible() {
				clean := true
				if tracking {
					for i := 0; i < m.NArgs; i++ {
						if !nf.Tags[i].Empty() {
							clean = false
							break
						}
					}
				}
				if clean {
					nf.fastOK = true
					v.Instrs += executed - flushed
					return 0, true, executed, nil
				}
			}
			f = nf
			pc = 0
			code = m.Code
			regs = nf.Regs
			tags = nf.Tags
			continue

		case OpReturn, OpRetVoid:
			ret := NullVal()
			retTag := taint.None
			if in.Op == OpReturn {
				ret = regs[in.B]
				if s2s {
					retTag = f.Tag(in.B)
				}
			}
			t.Frames = t.Frames[:len(t.Frames)-1]
			if len(t.Frames) == 0 {
				ret.Tag = retTag // boundary: materialize the shadow tag
				t.Result = ret
				t.putFrame(f)
				v.Instrs += executed - flushed
				return StopDone, false, executed, nil
			}
			done := f
			f = t.Frames[len(t.Frames)-1]
			pc = f.PC
			code = f.Method.Code
			regs = f.Regs
			tags = f.Tags
			regs[done.RetReg] = ret
			if tracking {
				tags[done.RetReg] = retTag
			}
			t.putFrame(done)
			// Fast-path handoff: returning into a still-clean fast frame
			// resumes the uninstrumented loop — unless the tracked callee
			// returned taint, which deoptimizes the caller for good.
			if fastHand && f.fastOK && !f.deopted {
				if !retTag.Empty() {
					f.deopted = true
				} else {
					f.PC = pc
					v.Instrs += executed - flushed
					return 0, true, executed, nil
				}
			}
			continue

		case OpMonEnter:
			o := regs[in.B].Ref
			if o == nil {
				return t.failAt(f, pc, executed-flushed, "monenter on null")
			}
			if v.Hooks.OnMonitorEnter != nil {
				f.PC = pc
				v.Instrs += executed - flushed
				flushed = executed
				if v.Hooks.OnMonitorEnter(o) {
					return StopMigrateLock, false, executed, nil
				}
			}
		case OpMonExit:
			o := regs[in.B].Ref
			if o == nil {
				return t.failAt(f, pc, executed-flushed, "monexit on null")
			}
			if v.Hooks.OnMonitorExit != nil {
				f.PC = pc
				v.Instrs += executed - flushed
				flushed = executed
				v.Hooks.OnMonitorExit(o)
			}

		case OpNative:
			// Per-VM inline cache: natives are registered on the VM, not
			// the program, so the cache key is the VM itself.
			var def *NativeDef
			if !slow && in.icVM == v {
				def = in.icNative
			}
			if def == nil {
				def = v.natives[in.Sym]
				if def == nil {
					return t.failAt(f, pc, executed-flushed, "unknown native %s", in.Sym)
				}
				if !slow {
					in.icVM = v
					in.icNative = def
				}
			}
			// Natives and their gates can observe the VM (cost models,
			// profilers): present exact state.
			f.PC = pc
			v.Instrs += executed - flushed
			flushed = executed
			if v.Hooks.NativeGate != nil && v.Hooks.NativeGate(def) {
				return StopMigrateNative, false, executed, nil
			}
			var args []Value
			if n := len(in.Args); cap(t.nativeArgs) >= n {
				args = t.nativeArgs[:n]
			} else {
				args = make([]Value, n)
				t.nativeArgs = args
			}
			for i, r := range in.Args {
				args[i] = regs[r]
				args[i].Tag = f.Tag(r) // boundary: natives see shadow tags
			}
			res, err := def.Fn(t, args)
			if err != nil {
				return t.failAt(f, pc, 0, "native %s: %v", in.Sym, err)
			}
			regs[in.A] = res
			if tracking {
				tags[in.A] = res.Tag
			}

		case OpTaintSet:
			o := regs[in.B].Ref
			if o == nil {
				return t.failAt(f, pc, executed-flushed, "taintset on null")
			}
			o.Tag = o.Tag.Union(taint.Bit(int(in.Imm)))
			v.Heap.MarkDirty(o)

		case OpTaintGet:
			o := regs[in.B].Ref
			if o == nil {
				return t.failAt(f, pc, executed-flushed, "taintget on null")
			}
			regs[in.A] = IntVal(int64(o.Tag))
			if s2s {
				tags[in.A] = taint.None
			}

		case OpHalt:
			t.Frames = t.Frames[:0]
			t.Result = NullVal()
			f.PC = pc
			v.Instrs += executed - flushed
			return StopDone, false, executed, nil

		default:
			return t.failAt(f, pc, executed-flushed, "unimplemented opcode %v", in.Op)
		}

		pc = npc
	}
}

// failAt terminates Run with a positioned error, first writing back the
// cached interpreter state (frame PC, instruction tally) that the
// dispatch loops keep in locals.
func (t *Thread) failAt(f *Frame, pc int, pending uint64, format string, args ...any) (StopReason, bool, uint64, error) {
	f.PC = pc
	t.VM.Instrs += pending
	return StopDone, false, 0, errAt(f, format, args...)
}

// heapRead handles the taint side of a heap→stack movement: stats, cor-idle
// reset and the offload trigger. It reports whether migration is requested.
func (t *Thread) heapRead(tag taint.Tag) bool {
	v := t.VM
	if v.collectStats {
		v.Counters.Add(taint.HeapToStack)
	}
	if tag.Empty() {
		return false
	}
	v.sinceTainted = 0
	if v.Hooks.OnTaintedAccess != nil {
		if v.collectStats {
			v.Counters.Triggered++
		}
		return v.Hooks.OnTaintedAccess(tag, taint.HeapToStack)
	}
	return false
}

// heapCombine handles the taint side of a heap→heap movement that creates a
// derived value (concat, hash, clone): on the device a tainted combination
// yields a new cor and triggers offloading (§3.5, fig 11 line 6).
func (t *Thread) heapCombine(tag taint.Tag) bool {
	v := t.VM
	if v.collectStats {
		v.Counters.Add(taint.HeapToHeap)
	}
	if tag.Empty() {
		return false
	}
	v.sinceTainted = 0
	if v.Hooks.OnTaintedAccess != nil {
		if v.collectStats {
			v.Counters.Triggered++
		}
		return v.Hooks.OnTaintedAccess(tag, taint.HeapToHeap)
	}
	return false
}
