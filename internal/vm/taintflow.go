package vm

import (
	"fmt"
	"sort"
)

// This file implements the static taint pre-analysis behind TinMan's
// partial instrumentation: a verify/link-time dataflow pass that proves
// which methods and regions of a program can never carry a tainted value
// through their registers, so the interpreter can run them on an
// uninstrumented fast-path loop (interp_fast.go) and fall back to the
// tracked loop at region boundaries.
//
// The analysis is a whole-program fixpoint over the linked call graph:
//
//   - per-method, flow-sensitive register taint (one bit per register,
//     merged at control-flow joins);
//   - per-method summaries: which argument positions may receive taint
//     from program-internal call sites, and whether the return value may
//     be tainted;
//   - one conservative heap bit: once program code can store a
//     possibly-tainted value into the heap (a tainted aput/iput/intostr/
//     strcat/substr/hash store, taintset, or any native call — natives may
//     taint arbitrary objects), every heap read in the program is assumed
//     to possibly yield taint.
//
// The lattice per register is the two-point chain clean ⊑ tainted; the
// per-method state is its pointwise product, and summaries/heap bit only
// grow, so the fixpoint terminates. Everything unknown over-approximates:
// unresolvable call targets taint their result, invokev joins over every
// same-name method in the program.
//
// Crucially, the verdicts are a *profitability* classification, not the
// soundness argument. Soundness comes from the runtime guards of the
// fast-path loop: taint can only enter a fast frame through a heap read, a
// native-call result, a callee's return value, or the entry arguments —
// and each of those carries a cheap tag check that deoptimizes the frame
// to the tracked loop before the tainted value is consumed. The analysis
// therefore treats those guarded sources as clean (the guard, not the
// lattice, covers them) and exists so that code which statically *handles*
// taint — taintset users, heap readers in a program that stores taint —
// never enters the fast loop and thrashes its guards, while provably
// taint-free code runs with zero per-instruction instrumentation.

// Verdict classifies a method (or a region within one) for the two-loop
// interpreter.
type Verdict uint8

const (
	// VerdictUnknown means the program was never analyzed; the interpreter
	// treats it as tracked.
	VerdictUnknown Verdict = iota
	// VerdictFast code cannot observe taint and contains no potential
	// deoptimization site: no heap reads, no natives, no calls into
	// tracked code. It runs uninstrumented end to end.
	VerdictFast
	// VerdictBoundary code cannot itself carry taint in registers, but it
	// contains guarded sites (heap reads, native results, calls into
	// tracked code) where execution may deoptimize or hand off to the
	// tracked loop.
	VerdictBoundary
	// VerdictTracked code may carry tainted values in its registers per
	// the static over-approximation; it always runs on the tracked loop.
	VerdictTracked
)

var verdictNames = [...]string{
	VerdictUnknown: "unknown", VerdictFast: "fast",
	VerdictBoundary: "boundary", VerdictTracked: "tracked",
}

func (v Verdict) String() string {
	if int(v) < len(verdictNames) {
		return verdictNames[v]
	}
	return fmt.Sprintf("Verdict(%d)", uint8(v))
}

// FastEligible reports whether code with this verdict may run on the
// uninstrumented fast-path loop.
func (v Verdict) FastEligible() bool { return v == VerdictFast || v == VerdictBoundary }

// Region is a maximal run of basic blocks sharing one verdict, for
// inspection and disassembly. Start is inclusive, End exclusive.
type Region struct {
	Start, End int
	Verdict    Verdict
}

// MethodFlow is the per-method analysis result.
type MethodFlow struct {
	Method  *Method
	Verdict Verdict
	// Regions covers [0, len(Code)) without gaps.
	Regions []Region
	// TaintedAt[pc] reports that a possibly-tainted value can flow through
	// the instruction's observed operands (or that it manipulates taint
	// directly, like taintset).
	TaintedAt []bool
	// GuardAt[pc] marks potential deoptimization sites of the fast loop:
	// taint-observing heap reads, native calls, and calls whose target set
	// includes tracked or unresolvable code.
	GuardAt []bool
	// ArgTaint[i] reports that argument i may be tainted at some
	// program-internal call site (external callers are guarded at frame
	// entry instead).
	ArgTaint []bool
	// ReturnsTaint reports that the method may return a tainted value.
	ReturnsTaint bool
}

// Analysis is the program-wide result of the taint pre-analysis.
type Analysis struct {
	// HeapMayTaint reports that program code can store taint into the heap
	// (or call natives, which may); when false, every heap read in the
	// program is statically clean and guard trips can only come from
	// external tainting (framework cor loads, cross-thread stores, DSM
	// sync) — exactly what the runtime guards catch.
	HeapMayTaint bool

	flows map[*Method]*MethodFlow
}

// Flow returns the analysis result for m, or nil.
func (a *Analysis) Flow(m *Method) *MethodFlow {
	if a == nil {
		return nil
	}
	return a.flows[m]
}

// Analysis returns the program's taint pre-analysis, or nil if Analyze has
// not run.
func (p *Program) Analysis() *Analysis { return p.analysis }

// Analyzed reports whether the taint pre-analysis has run.
func (p *Program) Analyzed() bool { return p.analysis != nil }

// Analyze runs the static taint pre-analysis and quickens fast-eligible
// methods (see quicken.go). Verify calls it after linking, so every
// assembled program is analyzed; it is idempotent. Like Link, it is purely
// an acceleration: vm.Config.NoFastPath ignores its results entirely, and
// the differential harness pins that behavior is bit-identical either way.
func (p *Program) Analyze() *Analysis {
	if p.analysis != nil {
		return p.analysis
	}
	p.Link()
	methods := p.allMethods()
	byName := make(map[string][]*Method)
	for _, m := range methods {
		byName[m.Name] = append(byName[m.Name], m)
	}

	st := &flowState{
		program:  p,
		byName:   byName,
		argTaint: make(map[*Method][]bool, len(methods)),
		retTaint: make(map[*Method]bool, len(methods)),
	}
	for _, m := range methods {
		st.argTaint[m] = make([]bool, m.NArgs)
	}

	// Interprocedural fixpoint: method summaries and the heap bit only
	// grow, so iteration terminates.
	for changed := true; changed; {
		changed = false
		for _, m := range methods {
			if st.scanMethod(m, nil) {
				changed = true
			}
		}
	}

	// Final pass under the stable assumptions: record per-pc taint facts.
	a := &Analysis{HeapMayTaint: st.heapMayTaint, flows: make(map[*Method]*MethodFlow, len(methods))}
	for _, m := range methods {
		flow := &MethodFlow{
			Method:       m,
			TaintedAt:    make([]bool, len(m.Code)),
			GuardAt:      make([]bool, len(m.Code)),
			ArgTaint:     st.argTaint[m],
			ReturnsTaint: st.retTaint[m],
		}
		st.scanMethod(m, flow)
		a.flows[m] = flow
	}

	// Verdicts. Tracked-ness depends only on the taint facts, so it is
	// assigned first; guard sites (which include calls into tracked code)
	// then decide Fast vs Boundary for the rest.
	for _, m := range methods {
		m.verdict = VerdictFast
		for _, t := range a.flows[m].TaintedAt {
			if t {
				m.verdict = VerdictTracked
				break
			}
		}
	}
	for _, m := range methods {
		flow := a.flows[m]
		for pc := range m.Code {
			in := &m.Code[pc]
			guard := false
			switch in.Op {
			case OpAGet, OpIGet, OpStrLen, OpCharAt, OpStrEq, OpIndexOf,
				OpStrToInt, OpClone, OpArrCopy, OpStrCat, OpSubstr, OpHash:
				// Taint-observing heap ops: may deoptimize on externally
				// introduced taint even when the static heap bit is clear.
				guard = true
			case OpNative:
				guard = true // result tag is checked after the call
			case OpInvoke, OpInvokeV:
				for _, target := range st.callTargets(in) {
					if target == nil || !target.verdict.FastEligible() {
						guard = true
					}
				}
			}
			if guard {
				flow.GuardAt[pc] = true
				if m.verdict == VerdictFast {
					m.verdict = VerdictBoundary
				}
			}
		}
	}
	for _, m := range methods {
		flow := a.flows[m]
		flow.Verdict = m.verdict
		flow.Regions = buildRegions(m, flow)
		if m.verdict.FastEligible() {
			m.fastCode = quicken(m)
			m.leafZero, m.leafArg, m.leaf = leafShape(m)
		}
	}

	p.analysis = a
	return a
}

// allMethods returns every method sorted by full name (deterministic
// fixpoint order).
func (p *Program) allMethods() []*Method {
	var out []*Method
	for _, c := range p.classes {
		for _, m := range c.Methods {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	return out
}

// flowState carries the interprocedural fixpoint state.
type flowState struct {
	program      *Program
	byName       map[string][]*Method
	argTaint     map[*Method][]bool
	retTaint     map[*Method]bool
	heapMayTaint bool
}

// callTargets resolves the possible targets of a call site: the linked
// static target for invoke, every same-name method for invokev (receivers
// are untyped statically). A nil entry means an unresolvable target.
func (s *flowState) callTargets(in *Instr) []*Method {
	if in.Op == OpInvoke {
		return []*Method{s.program.Method(in.Sym2, in.Sym)}
	}
	targets := s.byName[in.Sym]
	if len(targets) == 0 {
		return []*Method{nil}
	}
	return targets
}

// scanMethod runs the flow-sensitive register analysis over m under the
// current interprocedural assumptions. It reports whether any summary (a
// callee's argument taint, m's return taint, or the heap bit) grew. When
// flow is non-nil it additionally records per-pc facts.
//
// The transfer functions mirror the tracked interpreter's tag sources
// exactly (interp.go): aget/iget observe only heap-side tags, while
// strlen/charat/strtoint/strcat/substr/hash also fold in the operand
// register's shadow tag, and streq/indexof observe only the two object
// tags. Guarded sources — heap reads with a clean heap bit, native-call
// results — produce clean, per the file comment.
func (s *flowState) scanMethod(m *Method, flow *MethodFlow) bool {
	n := len(m.Code)
	if n == 0 {
		return false
	}
	changed := false
	taintHeap := func() {
		if !s.heapMayTaint {
			s.heapMayTaint = true
			changed = true
		}
	}
	taintArg := func(callee *Method, i int) {
		if i < len(s.argTaint[callee]) && !s.argTaint[callee][i] {
			s.argTaint[callee][i] = true
			changed = true
		}
	}

	// in[pc] is the register state at instruction entry; nil = unreached.
	in := make([][]bool, n)
	entry := make([]bool, m.NRegs)
	copy(entry, s.argTaint[m][:min(m.NArgs, m.NRegs)])
	in[0] = entry

	work := []int{0}
	merge := func(pc int, state []bool) {
		if pc < 0 || pc >= n {
			return // verify rejects these; stay robust on unverified code
		}
		if in[pc] == nil {
			in[pc] = append([]bool(nil), state...)
			work = append(work, pc)
			return
		}
		grew := false
		for i, t := range state {
			if t && !in[pc][i] {
				in[pc][i] = true
				grew = true
			}
		}
		if grew {
			work = append(work, pc)
		}
	}

	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		st := append([]bool(nil), in[pc]...)
		ins := &m.Code[pc]
		reg := func(r int) bool { return r >= 0 && r < len(st) && st[r] }
		set := func(r int, t bool) {
			if r >= 0 && r < len(st) {
				st[r] = t
			}
		}
		tainted := false // a possibly-tainted value is observed here
		next := true     // fall through to pc+1

		switch ins.Op {
		case OpNop, OpMonEnter, OpMonExit:

		case OpConst, OpConstF, OpConstStr, OpNew, OpNewArr, OpArrLen:
			// arrlen never observes taint (see interp.go); dest is clean.
			set(ins.A, false)

		case OpMove, OpNeg, OpNot, OpNegF, OpI2F, OpF2I:
			tainted = reg(ins.B)
			set(ins.A, tainted)

		case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl,
			OpShr, OpCmp, OpAddF, OpSubF, OpMulF, OpDivF, OpCmpF:
			tainted = reg(ins.B) || reg(ins.C)
			set(ins.A, tainted)

		case OpIfEq, OpIfNe, OpIfLt, OpIfLe, OpIfGt, OpIfGe:
			tainted = reg(ins.B) || reg(ins.C)
			merge(int(ins.Imm), st)
		case OpIfZ, OpIfNz:
			tainted = reg(ins.B)
			merge(int(ins.Imm), st)
		case OpGoto:
			merge(int(ins.Imm), st)
			next = false

		case OpAGet, OpIGet:
			// Observed tag is purely heap-side (elem/field/object tags).
			tainted = s.heapMayTaint
			set(ins.A, tainted)

		case OpStrEq, OpIndexOf:
			tainted = s.heapMayTaint // the two object tags
			set(ins.A, tainted)

		case OpStrLen, OpCharAt, OpStrToInt:
			tainted = s.heapMayTaint || reg(ins.B) // object tag ∪ register tag
			set(ins.A, tainted)

		case OpAPut, OpIPut:
			tainted = reg(ins.A)
			if tainted {
				taintHeap()
			}

		case OpClone, OpArrCopy:
			// Heap-to-heap at object granularity; the register result (for
			// clone) carries no tag, and the copied taint is already covered
			// by the heap bit.
			tainted = s.heapMayTaint
			if ins.Op == OpClone {
				set(ins.A, false)
			}

		case OpStrCat:
			tainted = s.heapMayTaint || reg(ins.B) || reg(ins.C)
			if tainted {
				taintHeap() // the derived string carries the union
			}
			set(ins.A, false)

		case OpSubstr, OpHash:
			tainted = s.heapMayTaint || reg(ins.B)
			if tainted {
				taintHeap()
			}
			set(ins.A, false)

		case OpIntToStr:
			tainted = reg(ins.B)
			if tainted {
				taintHeap() // allocates a heap string tagged from the register
			}
			set(ins.A, false)

		case OpInvoke, OpInvokeV:
			ret := false
			for _, target := range s.callTargets(ins) {
				if target == nil {
					ret = true
					continue
				}
				for i, r := range ins.Args {
					if reg(r) {
						tainted = true
						taintArg(target, i)
					}
				}
				if s.retTaint[target] {
					ret = true
				}
			}
			set(ins.A, ret)

		case OpNative:
			// Natives may taint arbitrary heap objects; their result tag is
			// runtime-guarded, so the dest register stays clean here.
			taintHeap()
			for _, r := range ins.Args {
				if reg(r) {
					tainted = true
				}
			}
			set(ins.A, false)

		case OpReturn:
			tainted = reg(ins.B)
			if tainted && !s.retTaint[m] {
				s.retTaint[m] = true
				changed = true
			}
			next = false
		case OpRetVoid, OpHalt:
			next = false

		case OpTaintSet:
			tainted = true // manipulates taint directly
			taintHeap()
		case OpTaintGet:
			set(ins.A, false) // tag bits read as a plain int
		}

		if flow != nil && tainted {
			flow.TaintedAt[pc] = true
		}
		if next {
			merge(pc+1, st)
		}
	}
	return changed
}

// buildRegions splits the method into basic blocks and coalesces adjacent
// blocks with the same verdict. Block verdict: tracked if any instruction
// observes taint, boundary if any is a guard site, fast otherwise.
func buildRegions(m *Method, flow *MethodFlow) []Region {
	n := len(m.Code)
	if n == 0 {
		return nil
	}
	leader := make([]bool, n)
	leader[0] = true
	for pc := range m.Code {
		switch in := &m.Code[pc]; in.Op {
		case OpIfEq, OpIfNe, OpIfLt, OpIfLe, OpIfGt, OpIfGe, OpIfZ, OpIfNz, OpGoto:
			if t := int(in.Imm); t >= 0 && t < n {
				leader[t] = true
			}
			if pc+1 < n {
				leader[pc+1] = true
			}
		case OpReturn, OpRetVoid, OpHalt:
			if pc+1 < n {
				leader[pc+1] = true
			}
		}
	}
	var regions []Region
	blockVerdict := func(start, end int) Verdict {
		v := VerdictFast
		for pc := start; pc < end; pc++ {
			if flow.TaintedAt[pc] {
				return VerdictTracked
			}
			if flow.GuardAt[pc] {
				v = VerdictBoundary
			}
		}
		return v
	}
	start := 0
	for pc := 1; pc <= n; pc++ {
		if pc == n || leader[pc] {
			v := blockVerdict(start, pc)
			if len(regions) > 0 && regions[len(regions)-1].Verdict == v {
				regions[len(regions)-1].End = pc
			} else {
				regions = append(regions, Region{Start: start, End: pc, Verdict: v})
			}
			start = pc
		}
	}
	return regions
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
