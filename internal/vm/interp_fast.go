package vm

import (
	"crypto/sha256"
	"encoding/hex"
	"math/bits"
	"strconv"
	"strings"

	"tinman/internal/taint"
)

// runFast is the uninstrumented fast-path dispatch loop of the partial
// instrumentation scheme (taintflow.go). It runs frames whose fastOK flag
// is set: born in an analysis-approved method with entirely clean argument
// tags. Its operating invariant is that every register shadow tag of the
// running frame is None, so it performs
//
//   - no shadow-tag reads or writes (tag slots exist under a tracking
//     policy but provably stay zero),
//   - no per-instruction policy checks,
//   - no cor-idle accounting (vm.fastEnabled excludes that configuration),
//
// and executes the method's quickened instruction stream (Method.fastCode,
// see quicken.go) with fused superinstructions for the hottest pairs. A
// call of a leaf method (leafShape in quicken.go) runs without a frame
// (runLeaf) when no hook, counter or budget boundary could observe the
// difference.
//
// Taint can enter a running fast frame through exactly four channels, and
// each carries a guard that deoptimizes the frame to the tracked loop
// before the tainted value is consumed:
//
//  1. heap reads (aget/iget/string ops): the observed heap-side tag is
//     checked; non-empty → deoptFast un-counts the instruction and the
//     tracked loop re-executes it with full instrumentation (counters,
//     idle reset, OnTaintedAccess, migrate stop — bit-identical to having
//     run tracked from the start);
//  2. native-call results: natives are impure and cannot be re-executed,
//     so the call completes, the result tag is stored, and the frame
//     deoptimizes at the next pc;
//  3. return values of tracked callees: handled by the tracked loop's
//     return handoff (interp.go), which deoptimizes the caller instead of
//     handing back;
//  4. entry arguments: checked when the frame is born (NewThread, the two
//     loops' invoke paths).
//
// External tainting — NewTaintedString, a cross-thread taintset through
// the scheduler, DSM sync — lands in the heap or in new frames, which is
// exactly what those guards watch; the static verdicts are profitability,
// the guards are correctness.
//
// Where the tracked loop counts propagation events (CollectStats), this
// loop replicates the counts exactly: a clean heap read still counts
// HeapToStack, a clean derived string still counts HeapToHeap, and the
// stack classes count per the same policy gates — the differential harness
// pins all of it. Deoptimization un-counts the guarded instruction first,
// so the tracked re-execution counts it exactly once.
func (t *Thread) runFast(budget uint64) (StopReason, bool, uint64, error) {
	v := t.VM
	max := budget
	if len(t.Frames) == 0 {
		return StopDone, false, 0, nil
	}

	var executed, flushed uint64
	tracking := v.tracking
	stats := v.CollectStats
	s2h, h2h := v.trackS2H, v.trackH2H
	obs := tracking || stats || v.Hooks.OnTaintedAccess != nil
	countS2S := v.trackS2S && stats
	countS2H := s2h && stats

	f := t.Frames[len(t.Frames)-1]
	pc := f.PC
	fcode := f.Method.fastCode
	if fcode == nil {
		fcode = f.Method.Code
	}
	ocode := f.Method.Code
	regs := f.Regs

	for {
		if uint(pc) >= uint(len(fcode)) {
			return t.failAt(f, pc, executed-flushed, "pc out of range (len=%d)", len(fcode))
		}
		in := &fcode[pc]
		if executed+2 > max {
			// Fewer than two instructions of budget left: stop, or
			// single-step the original instruction at this pc so a fused
			// pair cannot overrun the budget. StopLimit lands on exactly
			// the same instruction as the tracked loop's.
			if executed >= max {
				f.PC = pc
				v.Instrs += executed - flushed
				v.FastInstrs += executed - flushed
				return StopLimit, false, executed, nil
			}
			in = &ocode[pc]
		}
		executed++
		npc := pc + 1

		switch in.Op {
		case OpNop:

		case OpConst:
			regs[in.A] = IntVal(in.Imm)
		case OpConstF:
			regs[in.A] = FloatVal(in.F)
		case OpConstStr:
			// Same per-site interning as the tracked loop (copy-on-taint
			// literals); the fast stream owns its cache slots.
			var o *Object
			if in.icVM == v {
				if c := in.icStr; c != nil && c.Tag == taint.None && c.CorID == "" {
					o = c
				}
			}
			if o == nil {
				o = v.NewString(in.Sym)
				in.icVM = v
				in.icStr = o
			}
			regs[in.A] = RefVal(o)

		case OpMove:
			regs[in.A] = regs[in.B]
			if countS2S {
				v.Counters.Add(taint.StackToStack)
			}

		case OpAdd:
			regs[in.A] = IntVal(regs[in.B].Int + regs[in.C].Int)
			if countS2S {
				v.Counters.Add(taint.StackToStack)
			}
		case OpSub:
			regs[in.A] = IntVal(regs[in.B].Int - regs[in.C].Int)
			if countS2S {
				v.Counters.Add(taint.StackToStack)
			}
		case OpMul:
			regs[in.A] = IntVal(regs[in.B].Int * regs[in.C].Int)
			if countS2S {
				v.Counters.Add(taint.StackToStack)
			}
		case OpAnd:
			regs[in.A] = IntVal(regs[in.B].Int & regs[in.C].Int)
			if countS2S {
				v.Counters.Add(taint.StackToStack)
			}
		case OpOr:
			regs[in.A] = IntVal(regs[in.B].Int | regs[in.C].Int)
			if countS2S {
				v.Counters.Add(taint.StackToStack)
			}
		case OpXor:
			regs[in.A] = IntVal(regs[in.B].Int ^ regs[in.C].Int)
			if countS2S {
				v.Counters.Add(taint.StackToStack)
			}
		case OpDiv, OpRem, OpShl, OpShr, OpCmp:
			b, c := regs[in.B].Int, regs[in.C].Int
			if (in.Op == OpDiv || in.Op == OpRem) && c == 0 {
				return t.failAt(f, pc, executed-flushed, "division by zero")
			}
			regs[in.A] = IntVal(intArith(in.Op, b, c))
			if countS2S {
				v.Counters.Add(taint.StackToStack)
			}

		case OpNeg, OpNot:
			r := -regs[in.B].Int
			if in.Op == OpNot {
				r = ^regs[in.B].Int
			}
			regs[in.A] = IntVal(r)
			if countS2S {
				v.Counters.Add(taint.StackToStack)
			}

		case OpAddF, OpSubF, OpMulF, OpDivF, OpCmpF:
			regs[in.A] = floatArith(in.Op, regs[in.B].Float(), regs[in.C].Float())
			if countS2S {
				v.Counters.Add(taint.StackToStack)
			}

		case OpNegF:
			regs[in.A] = FloatVal(-regs[in.B].Float())
		case OpI2F:
			regs[in.A] = FloatVal(float64(regs[in.B].Int))
		case OpF2I:
			regs[in.A] = IntVal(int64(regs[in.B].Float()))

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
			c := in.icClass
			if c == nil {
				c = v.ClassByName(in.Sym)
				if c == nil {
					return t.failAt(f, pc, executed-flushed, "unknown class %s", in.Sym)
				}
				if c != v.stringClass && c != v.arrayClass {
					in.icClass = c
				}
			}
			regs[in.A] = RefVal(v.Heap.Alloc(c))

		case OpNewArr:
			n := regs[in.B].Int
			if n < 0 || n > 1<<24 {
				return t.failAt(f, pc, executed-flushed, "bad array length %d", n)
			}
			regs[in.A] = RefVal(v.Heap.AllocArray(v.arrayClass, int(n)))

		case OpArrLen:
			o := regs[in.B].Ref
			if o == nil {
				return t.failAt(f, pc, executed-flushed, "arrlen of null")
			}
			regs[in.A] = IntVal(int64(len(o.Elems)))

		case OpAGet:
			o := regs[in.B].Ref
			if o == nil {
				return t.failAt(f, pc, executed-flushed, "aget from null")
			}
			ix := regs[in.C].Int
			if ix < 0 || ix >= int64(len(o.Elems)) {
				return t.failAt(f, pc, executed-flushed, "array index %d out of range [0,%d)", ix, len(o.Elems))
			}
			if obs {
				if tag := o.ElemTag(int(ix)).Union(o.Tag); !tag.Empty() {
					executed--
					return t.deoptFast(f, pc, executed-flushed, executed)
				}
				if stats {
					v.Counters.Add(taint.HeapToStack)
				}
			}
			regs[in.A] = o.Elems[ix]

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
				// The stored register is clean by invariant, but the slot's
				// old tag must still be cleared, exactly as tracked does.
				o.SetElemTag(int(ix), taint.None)
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
			var fi int
			if in.icClass == o.Class {
				fi = in.icSlot
			} else {
				fi = o.Class.FieldIndex(in.Sym)
				if fi < 0 {
					return t.failAt(f, pc, executed-flushed, "class %s has no field %s", o.Class.Name, in.Sym)
				}
				in.icClass = o.Class
				in.icSlot = fi
			}
			if obs {
				if tag := o.FieldTag(fi); !tag.Empty() {
					executed--
					return t.deoptFast(f, pc, executed-flushed, executed)
				}
				if stats {
					v.Counters.Add(taint.HeapToStack)
				}
			}
			regs[in.A] = o.Fields[fi]

		case OpIPut:
			o := regs[in.B].Ref
			if o == nil {
				return t.failAt(f, pc, executed-flushed, "iput %s to null", in.Sym)
			}
			var fi int
			if in.icClass == o.Class {
				fi = in.icSlot
			} else {
				fi = o.Class.FieldIndex(in.Sym)
				if fi < 0 {
					return t.failAt(f, pc, executed-flushed, "class %s has no field %s", o.Class.Name, in.Sym)
				}
				in.icClass = o.Class
				in.icSlot = fi
			}
			o.Fields[fi] = regs[in.A]
			if s2h {
				o.SetFieldTag(fi, taint.None)
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
			// Combined tag depends only on the source, so the guard runs
			// before any allocation: a deopt re-executes from scratch.
			tag := src.Tag
			if h2h {
				if src.IsArr {
					for _, et := range src.ElemTags {
						tag = tag.Union(et)
					}
				} else if !src.IsStr {
					for _, ft := range src.FieldTags {
						tag = tag.Union(ft)
					}
				}
			}
			if obs {
				if !tag.Empty() {
					executed--
					return t.deoptFast(f, pc, executed-flushed, executed)
				}
				if stats {
					v.Counters.Add(taint.HeapToHeap)
				}
			}
			var dst *Object
			switch {
			case src.IsStr:
				dst = v.Heap.AllocString(src.Class, src.Str, taint.None)
			case src.IsArr:
				dst = v.Heap.AllocArray(src.Class, len(src.Elems))
				copy(dst.Elems, src.Elems)
				if h2h && src.ElemTags != nil {
					dst.ElemTags = append([]taint.Tag(nil), src.ElemTags...)
				}
			default:
				dst = v.Heap.Alloc(src.Class)
				copy(dst.Fields, src.Fields)
				if h2h && src.FieldTags != nil {
					dst.FieldTags = append([]taint.Tag(nil), src.FieldTags...)
				}
			}
			if h2h {
				dst.Tag = tag // empty here; preserves the tracked write
				dst.CorID = src.CorID
			}
			regs[in.A] = RefVal(dst)

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
			if h2h {
				for i := 0; i < n; i++ {
					tag = tag.Union(src.ElemTag(i))
				}
			}
			if obs && !tag.Empty() {
				executed--
				return t.deoptFast(f, pc, executed-flushed, executed)
			}
			copy(dst.Elems, src.Elems[:n])
			if h2h {
				for i := 0; i < n; i++ {
					dst.SetElemTag(i, src.ElemTag(i))
				}
				if stats {
					v.Counters.Add(taint.HeapToHeap)
				}
			}
			if obs && stats {
				v.Counters.Add(taint.HeapToHeap)
			}
			v.Heap.MarkDirty(dst)

		case OpStrCat:
			b, c := regs[in.B], regs[in.C]
			if b.Ref == nil || c.Ref == nil {
				return t.failAt(f, pc, executed-flushed, "strcat with null")
			}
			if obs {
				if tag := b.Ref.Tag.Union(c.Ref.Tag); !tag.Empty() {
					executed--
					return t.deoptFast(f, pc, executed-flushed, executed)
				}
				if stats {
					v.Counters.Add(taint.HeapToHeap)
				}
			}
			// Both operands proven clean: the instrumented byte-by-byte
			// copy (§6.1) is unnecessary — this is the Dalvik string fast
			// path the analysis re-enables.
			regs[in.A] = RefVal(v.Heap.AllocString(v.stringClass, b.Ref.Str+c.Ref.Str, taint.None))

		case OpStrLen:
			o := regs[in.B].Ref
			if o == nil {
				return t.failAt(f, pc, executed-flushed, "strlen of null")
			}
			if obs {
				if !o.Tag.Empty() {
					executed--
					return t.deoptFast(f, pc, executed-flushed, executed)
				}
				if stats {
					v.Counters.Add(taint.HeapToStack)
				}
			}
			regs[in.A] = IntVal(int64(len(o.Str)))

		case OpCharAt:
			o := regs[in.B].Ref
			if o == nil {
				return t.failAt(f, pc, executed-flushed, "charat of null")
			}
			ix := regs[in.C].Int
			if ix < 0 || ix >= int64(len(o.Str)) {
				return t.failAt(f, pc, executed-flushed, "string index %d out of range [0,%d)", ix, len(o.Str))
			}
			if obs {
				if !o.Tag.Empty() {
					executed--
					return t.deoptFast(f, pc, executed-flushed, executed)
				}
				if stats {
					v.Counters.Add(taint.HeapToStack)
				}
			}
			regs[in.A] = IntVal(int64(o.Str[ix]))

		case OpStrEq:
			b, c := regs[in.B].Ref, regs[in.C].Ref
			if b == nil || c == nil {
				return t.failAt(f, pc, executed-flushed, "streq with null")
			}
			if obs {
				if tag := b.Tag.Union(c.Tag); !tag.Empty() {
					executed--
					return t.deoptFast(f, pc, executed-flushed, executed)
				}
				if stats {
					v.Counters.Add(taint.HeapToStack)
				}
			}
			var r int64
			if b.Str == c.Str {
				r = 1
			}
			regs[in.A] = IntVal(r)

		case OpIndexOf:
			b, c := regs[in.B].Ref, regs[in.C].Ref
			if b == nil || c == nil {
				return t.failAt(f, pc, executed-flushed, "indexof with null")
			}
			if obs {
				if tag := b.Tag.Union(c.Tag); !tag.Empty() {
					executed--
					return t.deoptFast(f, pc, executed-flushed, executed)
				}
				if stats {
					v.Counters.Add(taint.HeapToStack)
				}
			}
			regs[in.A] = IntVal(int64(strings.Index(b.Str, c.Str)))

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
			if obs {
				if !o.Tag.Empty() {
					executed--
					return t.deoptFast(f, pc, executed-flushed, executed)
				}
				if stats {
					v.Counters.Add(taint.HeapToHeap)
				}
			}
			regs[in.A] = RefVal(v.Heap.AllocString(v.stringClass, o.Str[start:end], taint.None))

		case OpIntToStr:
			if countS2H {
				v.Counters.Add(taint.StackToHeap)
			}
			regs[in.A] = RefVal(v.Heap.AllocString(v.stringClass, strconv.FormatInt(regs[in.B].Int, 10), taint.None))

		case OpStrToInt:
			o := regs[in.B].Ref
			if o == nil {
				return t.failAt(f, pc, executed-flushed, "strtoint of null")
			}
			if obs {
				if !o.Tag.Empty() {
					executed--
					return t.deoptFast(f, pc, executed-flushed, executed)
				}
				if stats {
					v.Counters.Add(taint.HeapToStack)
				}
			}
			n, err := strconv.ParseInt(strings.TrimSpace(o.Str), 10, 64)
			if err != nil {
				n = 0
			}
			regs[in.A] = IntVal(n)

		case OpHash:
			o := regs[in.B].Ref
			if o == nil {
				return t.failAt(f, pc, executed-flushed, "hash of null")
			}
			if obs {
				if !o.Tag.Empty() {
					executed--
					return t.deoptFast(f, pc, executed-flushed, executed)
				}
				if stats {
					v.Counters.Add(taint.HeapToHeap)
				}
			}
			sum := sha256.Sum256([]byte(o.Str))
			regs[in.A] = RefVal(v.Heap.AllocString(v.stringClass, hex.EncodeToString(sum[:]), taint.None))

		case OpInvoke, OpInvokeV:
			var m *Method
			if in.Op == OpInvoke {
				m = in.icMethod
				if m == nil {
					m = v.Program.Method(in.Sym2, in.Sym)
					if m == nil {
						return t.failAt(f, pc, executed-flushed, "unknown method %s.%s", in.Sym2, in.Sym)
					}
					in.icMethod = m
				}
			} else {
				if len(in.Args) == 0 {
					return t.failAt(f, pc, executed-flushed, "invokev with no receiver")
				}
				recv := regs[in.Args[0]].Ref
				if recv == nil {
					return t.failAt(f, pc, executed-flushed, "invokev %s on null", in.Sym)
				}
				if in.icClass == recv.Class {
					m = in.icMethod
				} else {
					m = recv.Class.Methods[in.Sym]
					if m == nil {
						return t.failAt(f, pc, executed-flushed, "class %s has no method %s", recv.Class.Name, in.Sym)
					}
					in.icClass = recv.Class
					in.icMethod = m
				}
			}
			if len(in.Args) != m.NArgs {
				return t.failAt(f, pc, executed-flushed, "%s takes %d args, got %d", m.FullName(), m.NArgs, len(in.Args))
			}
			if len(t.Frames) >= maxFrames {
				return t.failAt(f, pc, executed-flushed, "stack overflow (%d frames)", maxFrames)
			}
			v.Calls++
			if m.leaf && !stats && v.Hooks.OnInvoke == nil && executed+uint64(len(m.Code)) <= max {
				// Frame-free leaf call (leafShape in quicken.go): the whole
				// body fits the budget and nothing in it can stop, fault or
				// observe a frame, so it runs over the scratch window and
				// its result lands as a framed return's would.
				executed += uint64(len(m.Code))
				regs[in.A] = t.runLeaf(m, in.Args, regs)
				if f.Tags != nil {
					f.Tags[in.A] = taint.None
				}
				break
			}
			if v.Hooks.OnInvoke != nil {
				f.PC = pc
				v.Instrs += executed - flushed
				v.FastInstrs += executed - flushed
				flushed = executed
				v.Hooks.OnInvoke(m)
			}
			// Argument shadow tags are all None by the fast invariant, and
			// getFrame hands out None tags — nothing to copy.
			nf := t.getFrame(m, in.Args, regs, tracking)
			nf.RetReg = in.A
			f.PC = npc
			t.Frames = append(t.Frames, nf)
			if m.verdict.FastEligible() {
				// Fast → fast: stay in this loop.
				nf.fastOK = true
				f = nf
				pc = 0
				fcode = m.fastCode
				if fcode == nil {
					fcode = m.Code
				}
				ocode = m.Code
				regs = nf.Regs
				continue
			}
			// Callee is tracked code: hand the pushed frame to the tracked
			// loop; this frame resumes fast when it returns clean.
			v.Instrs += executed - flushed
			v.FastInstrs += executed - flushed
			return 0, true, executed, nil

		case OpReturn, OpRetVoid:
			ret := NullVal()
			if in.Op == OpReturn {
				ret = regs[in.B]
			}
			t.Frames = t.Frames[:len(t.Frames)-1]
			if len(t.Frames) == 0 {
				ret.Tag = taint.None // the fast frame's shadow tag is None
				t.Result = ret
				t.putFrame(f)
				v.Instrs += executed - flushed
				v.FastInstrs += executed - flushed
				return StopDone, false, executed, nil
			}
			done := f
			f = t.Frames[len(t.Frames)-1]
			pc = f.PC
			regs = f.Regs
			regs[done.RetReg] = ret
			if f.Tags != nil {
				f.Tags[done.RetReg] = taint.None
			}
			t.putFrame(done)
			if f.fastOK && !f.deopted {
				fcode = f.Method.fastCode
				if fcode == nil {
					fcode = f.Method.Code
				}
				ocode = f.Method.Code
				continue
			}
			// Returning into tracked code: hand back.
			f.PC = pc
			v.Instrs += executed - flushed
			v.FastInstrs += executed - flushed
			return 0, true, executed, nil

		case OpMonEnter:
			o := regs[in.B].Ref
			if o == nil {
				return t.failAt(f, pc, executed-flushed, "monenter on null")
			}
			if v.Hooks.OnMonitorEnter != nil {
				f.PC = pc
				v.Instrs += executed - flushed
				v.FastInstrs += executed - flushed
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
				v.FastInstrs += executed - flushed
				flushed = executed
				v.Hooks.OnMonitorExit(o)
			}

		case OpNative:
			def := in.icNative
			if in.icVM != v {
				def = nil
			}
			if def == nil {
				def = v.natives[in.Sym]
				if def == nil {
					return t.failAt(f, pc, executed-flushed, "unknown native %s", in.Sym)
				}
				in.icVM = v
				in.icNative = def
			}
			f.PC = pc
			v.Instrs += executed - flushed
			v.FastInstrs += executed - flushed
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
				args[i].Tag = taint.None // fast frames carry no register taint
			}
			res, err := def.Fn(t, args)
			if err != nil {
				return t.failAt(f, pc, 0, "native %s: %v", in.Sym, err)
			}
			regs[in.A] = res
			if tracking {
				if f.Tags != nil {
					f.Tags[in.A] = res.Tag
				}
				if !res.Tag.Empty() {
					// Guard 2: the native returned taint. The call is done
					// (natives are impure — no re-execution), the tag is
					// stored; the frame continues on the tracked loop.
					f.deopted = true
					f.PC = npc
					return 0, true, executed, nil
				}
			}

		case OpTaintGet:
			o := regs[in.B].Ref
			if o == nil {
				return t.failAt(f, pc, executed-flushed, "taintget on null")
			}
			regs[in.A] = IntVal(int64(o.Tag))

		case OpHalt:
			t.Frames = t.Frames[:0]
			t.Result = NullVal()
			f.PC = pc
			v.Instrs += executed - flushed
			v.FastInstrs += executed - flushed
			return StopDone, false, executed, nil

		// ---- fused superinstructions (quicken.go); each counts as two ----

		case fConstAdd:
			regs[in.A] = IntVal(in.Imm)
			regs[in.B] = IntVal(regs[in.C].Int + regs[int(in.Imm3)].Int)
			executed++
			if countS2S {
				v.Counters.Add(taint.StackToStack)
			}
			npc = pc + 2
		case fConstSub:
			regs[in.A] = IntVal(in.Imm)
			regs[in.B] = IntVal(regs[in.C].Int - regs[int(in.Imm3)].Int)
			executed++
			if countS2S {
				v.Counters.Add(taint.StackToStack)
			}
			npc = pc + 2
		case fConstMul:
			regs[in.A] = IntVal(in.Imm)
			regs[in.B] = IntVal(regs[in.C].Int * regs[int(in.Imm3)].Int)
			executed++
			if countS2S {
				v.Counters.Add(taint.StackToStack)
			}
			npc = pc + 2

		case fConstArith:
			regs[in.A] = IntVal(in.Imm)
			x, y := regs[in.C].Int, regs[int(in.Imm3)].Int
			op2 := Op(in.Imm2)
			if (op2 == OpDiv || op2 == OpRem) && y == 0 {
				// Unreachable by construction (quicken skips zero-immediate
				// divisors), kept for exactness: fail at the arith sub-pc.
				executed++
				return t.failAt(f, pc+1, executed-flushed, "division by zero")
			}
			regs[in.B] = IntVal(intArith(op2, x, y))
			executed++
			if countS2S {
				v.Counters.Add(taint.StackToStack)
			}
			npc = pc + 2

		case fConstFArith:
			regs[in.A] = FloatVal(in.F)
			regs[in.B] = floatArith(Op(in.Imm2), regs[in.C].Float(), regs[int(in.Imm3)].Float())
			executed++
			if countS2S {
				v.Counters.Add(taint.StackToStack)
			}
			npc = pc + 2

		case fArithGoto:
			regs[in.A] = IntVal(intArith(Op(in.Imm2), regs[in.B].Int, regs[in.C].Int))
			executed++
			if countS2S {
				v.Counters.Add(taint.StackToStack)
			}
			npc = int(in.Imm)

		case fConstAPut:
			regs[in.A] = IntVal(in.Imm2)
			executed++
			o := regs[in.B].Ref
			if o == nil {
				return t.failAt(f, pc+1, executed-flushed, "aput to null")
			}
			ix := regs[in.C].Int
			if ix < 0 || ix >= int64(len(o.Elems)) {
				return t.failAt(f, pc+1, executed-flushed, "array index %d out of range [0,%d)", ix, len(o.Elems))
			}
			o.Elems[ix] = regs[in.A]
			if s2h {
				o.SetElemTag(int(ix), taint.None)
				if countS2H {
					v.Counters.Add(taint.StackToHeap)
				}
			}
			v.Heap.MarkDirty(o)
			npc = pc + 2

		case fAGetBranch:
			o := regs[in.B].Ref
			if o == nil {
				return t.failAt(f, pc, executed-flushed, "aget from null")
			}
			ix := regs[in.C].Int
			if ix < 0 || ix >= int64(len(o.Elems)) {
				return t.failAt(f, pc, executed-flushed, "array index %d out of range [0,%d)", ix, len(o.Elems))
			}
			if obs {
				if tag := o.ElemTag(int(ix)).Union(o.Tag); !tag.Empty() {
					executed--
					return t.deoptFast(f, pc, executed-flushed, executed)
				}
				if stats {
					v.Counters.Add(taint.HeapToStack)
				}
			}
			val := o.Elems[ix]
			regs[in.A] = val
			executed++
			taken := (val.Kind == KindRef && val.Ref != nil) || (val.Kind != KindRef && val.Int != 0)
			if in.Imm2 == 0 {
				taken = !taken
			}
			if taken {
				npc = int(in.Imm)
			} else {
				npc = pc + 2
			}

		default:
			// Anything else (taintset, future opcodes): deoptimize before
			// executing — the tracked loop handles it. Analysis verdicts
			// keep this path cold; it is the safety net, not the policy.
			executed--
			return t.deoptFast(f, pc, executed-flushed, executed)
		}

		pc = npc
	}
}

// runLeaf runs a frame-free leaf call of m (leafShape in quicken.go) with
// the caller registers args as its arguments and returns the value of its
// return. Every instruction of a leaf reads and writes only the integer
// datum, so the thread's scratch window holds just that: the arguments'
// data, and 0 in every register the leaf reads before writing, which is
// what a fresh frame's int(0) registers would give it. The result is the
// int computed into the returned register, or, when the leaf returns an
// argument unchanged (leafArg), that argument's whole Value.
func (t *Thread) runLeaf(m *Method, args []int, caller []Value) Value {
	w := &t.leafRegs
	for i, r := range args {
		w[i] = caller[r].Int
	}
	for z := m.leafZero; z != 0; z &= z - 1 {
		w[bits.TrailingZeros16(z)] = 0
	}
	code := m.fastCode
	for pc := 0; ; pc++ {
		in := &code[pc]
		switch in.Op {
		case OpConst:
			w[in.A] = in.Imm
		case OpMove:
			w[in.A] = w[in.B]
		case OpAdd:
			w[in.A] = w[in.B] + w[in.C]
		case OpSub:
			w[in.A] = w[in.B] - w[in.C]
		case OpMul:
			w[in.A] = w[in.B] * w[in.C]
		case OpAnd:
			w[in.A] = w[in.B] & w[in.C]
		case OpOr:
			w[in.A] = w[in.B] | w[in.C]
		case OpXor:
			w[in.A] = w[in.B] ^ w[in.C]
		case OpNeg:
			w[in.A] = -w[in.B]
		case OpNot:
			w[in.A] = ^w[in.B]
		case fConstAdd:
			w[in.A] = in.Imm
			w[in.B] = w[in.C] + w[in.Imm3]
			pc++
		case fConstSub:
			w[in.A] = in.Imm
			w[in.B] = w[in.C] - w[in.Imm3]
			pc++
		case fConstMul:
			w[in.A] = in.Imm
			w[in.B] = w[in.C] * w[in.Imm3]
			pc++
		case fConstArith:
			// leafShape admits a div/rem only by a non-zero const.
			w[in.A] = in.Imm
			w[in.B] = intArith(Op(in.Imm2), w[in.C], w[in.Imm3])
			pc++
		case OpReturn:
			if k := m.leafArg; k >= 0 {
				return caller[args[k]]
			}
			return IntVal(w[in.B])
		default:
			// Shifts, cmp, and div/rem by a non-zero const.
			w[in.A] = intArith(in.Op, w[in.B], w[in.C])
		}
	}
}

// deoptFast permanently downgrades f to the tracked loop. The caller has
// already un-counted the guarded instruction, so the tracked re-execution
// counts it — and performs its side effects — exactly once.
func (t *Thread) deoptFast(f *Frame, pc int, pending, consumed uint64) (StopReason, bool, uint64, error) {
	f.deopted = true
	f.PC = pc
	t.VM.Instrs += pending
	t.VM.FastInstrs += pending
	return 0, true, consumed, nil
}

// intArith evaluates an integer/compare opcode. Division by zero must be
// rejected by the caller.
func intArith(op Op, b, c int64) int64 {
	switch op {
	case OpAdd:
		return b + c
	case OpSub:
		return b - c
	case OpMul:
		return b * c
	case OpDiv:
		return b / c
	case OpRem:
		return b % c
	case OpAnd:
		return b & c
	case OpOr:
		return b | c
	case OpXor:
		return b ^ c
	case OpShl:
		return b << uint(c&63)
	case OpShr:
		return b >> uint(c&63)
	case OpCmp:
		switch {
		case b < c:
			return -1
		case b > c:
			return 1
		}
	}
	return 0
}

// floatArith evaluates a float opcode (cmpf yields an int value).
func floatArith(op Op, b, c float64) Value {
	switch op {
	case OpAddF:
		return FloatVal(b + c)
	case OpSubF:
		return FloatVal(b - c)
	case OpMulF:
		return FloatVal(b * c)
	case OpDivF:
		return FloatVal(b / c)
	case OpCmpF:
		var r int64
		switch {
		case b < c:
			r = -1
		case b > c:
			r = 1
		}
		return IntVal(r)
	}
	return IntVal(0)
}
