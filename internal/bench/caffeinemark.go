package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"tinman/internal/taint"
	"tinman/internal/vm"
	"tinman/internal/vm/asm"
)

// caffeineSource holds the six Caffeinemark-style kernels. Each stresses a
// different instruction mix, which is what makes Fig 13 informative: the
// cost of a tainting configuration depends on which propagation classes the
// mix exercises.
const caffeineSource = `
class Caffeine
  ; Sieve of Eratosthenes: array get/put bound (heap<->stack traffic).
  method sieve 1 12
    newarr r1, r0
    const r2, 2
  outer:
    ifge r2, r0, count
    aget r3, r1, r2
    ifnz r3, next
    mul r4, r2, r2
  inner:
    ifge r4, r0, next
    const r5, 1
    aput r5, r1, r4
    add r4, r4, r2
    goto inner
  next:
    const r5, 1
    add r2, r2, r5
    goto outer
  count:
    const r6, 0
    const r7, 2
  tally:
    ifge r7, r0, done
    aget r3, r1, r7
    ifnz r3, skip
    const r5, 1
    add r6, r6, r5
  skip:
    const r5, 1
    add r7, r7, r5
    goto tally
  done:
    return r6
  end

  ; Loop: pure register arithmetic (stack-to-stack bound).
  method loop 1 10
    const r1, 0
    const r2, 0
  head:
    ifge r2, r0, done
    add r1, r1, r2
    mul r3, r2, r2
    sub r1, r1, r3
    add r1, r1, r3
    const r4, 1
    add r2, r2, r4
    goto head
  done:
    return r1
  end

  ; Logic: bitwise operations (stack-to-stack bound).
  method logic 1 10
    const r1, -1
    const r2, 0
  head:
    ifge r2, r0, done
    xor r1, r1, r2
    and r3, r1, r2
    or r1, r1, r3
    shl r3, r1, r2
    shr r3, r3, r2
    xor r1, r1, r3
    const r4, 1
    add r2, r2, r4
    goto head
  done:
    return r1
  end

  ; Method: invocation-bound (frame setup, arg copying).
  method callee 2 4
    add r2, r0, r1
    const r3, 7
    rem r2, r2, r3
    return r2
  end
  method methodcall 1 8
    const r1, 0
    const r2, 0
  head:
    ifge r2, r0, done
    invoke r3, Caffeine.callee, r1, r2
    add r1, r1, r3
    const r4, 1
    add r2, r2, r4
    goto head
  done:
    return r1
  end

  ; Float: floating-point arithmetic.
  method float 1 12
    constf r1, 1.000001
    constf r2, 0.0
    const r3, 0
  head:
    ifge r3, r0, done
    mulf r2, r1, r1
    addf r1, r1, r2
    constf r4, 2.0
    divf r1, r1, r4
    subf r2, r1, r2
    const r5, 1
    add r3, r3, r5
    goto head
  done:
    f2i r6, r1
    return r6
  end

  ; String: concatenation and charAt — the mix the paper reports as worst
  ; under tainting (string fast paths disabled, high heap-to-stack ratio).
  method string 1 14
    conststr r1, "caffeine"
    conststr r2, ""
    const r3, 0
  head:
    ifge r3, r0, done
    strcat r2, r2, r1
    strlen r4, r2
    const r9, 64
    iflt r4, r9, short
    const r5, 0
    substr r2, r2, r5, 32
  short:
    const r6, 0
    charat r7, r2, r6
    const r8, 1
    add r3, r3, r8
    goto head
  done:
    strlen r4, r2
    return r4
  end
end
`

// Kernel names the six Fig 13 workloads with their work parameters.
type Kernel struct {
	Name   string
	Method string
	Arg    int64
}

// Kernels lists the Caffeinemark suite.
var Kernels = []Kernel{
	{Name: "Sieve", Method: "sieve", Arg: 16384},
	{Name: "Loop", Method: "loop", Arg: 60000},
	{Name: "Logic", Method: "logic", Arg: 50000},
	{Name: "Method", Method: "methodcall", Arg: 40000},
	{Name: "Float", Method: "float", Arg: 50000},
	{Name: "String", Method: "string", Arg: 9000},
}

// Fig13Policies are the three configurations of Fig 13, in presentation
// order.
var Fig13Policies = []taint.Policy{taint.Off, taint.Full, taint.Asymmetric}

// caffeineProg caches the assembled suite; programs are immutable after
// sealing, so VMs can share one.
var (
	caffeineOnce sync.Once
	caffeineProg *vm.Program
	caffeineErr  error
)

// NewCaffeineVM builds a VM loaded with the kernel suite under the given
// policy, with the taint pre-analysis fast path disabled: every instruction
// runs fully instrumented, which is the configuration the paper's Fig 13
// overheads describe. A fresh heap keeps allocation effects comparable
// across runs.
func NewCaffeineVM(policy taint.Policy) (*vm.VM, error) {
	return newCaffeineVM(policy, false, false)
}

// NewReferenceCaffeineVM builds the same VM forced through the reference
// interpreter (vm.Config.SlowPath: no link-time resolution, no inline
// caches, no literal interning). Benchmarking it against NewCaffeineVM
// isolates what the linked fast paths buy.
func NewReferenceCaffeineVM(policy taint.Policy) (*vm.VM, error) {
	return newCaffeineVM(policy, true, false)
}

func newCaffeineVM(policy taint.Policy, slowPath, analyze bool) (*vm.VM, error) {
	caffeineOnce.Do(func() {
		caffeineProg, caffeineErr = asm.Assemble("caffeinemark", caffeineSource)
	})
	if caffeineErr != nil {
		return nil, caffeineErr
	}
	return vm.New(vm.Config{
		Program:    caffeineProg,
		Heap:       vm.NewHeap(1, 2),
		Policy:     policy,
		SlowPath:   slowPath,
		NoFastPath: !analyze,
	}), nil
}

// RunKernel executes one kernel once and returns its result value.
func RunKernel(machine *vm.VM, k Kernel) (int64, error) {
	th, err := machine.NewThread(machine.Program.Method("Caffeine", k.Method), vm.IntVal(k.Arg))
	if err != nil {
		return 0, err
	}
	stop, err := th.Run()
	if err != nil {
		return 0, err
	}
	if stop != vm.StopDone {
		return 0, fmt.Errorf("bench: kernel %s stopped with %v", k.Name, stop)
	}
	return th.Result.Int, nil
}

// CaffeineRow is one kernel's scores under the three policies. Scores are
// Caffeinemark-style: work units per second (higher is better).
type CaffeineRow struct {
	Kernel string
	// Score per policy name ("off", "full", "asymmetric").
	Score map[string]float64
}

// Overhead returns the slowdown of policy p relative to the untainted
// baseline, e.g. 0.10 for 10% slower.
func (r CaffeineRow) Overhead(p taint.Policy) float64 {
	base := r.Score["off"]
	s := r.Score[p.Name()]
	if base == 0 || s == 0 {
		return 0
	}
	return base/s - 1
}

// Caffeinemark reproduces Fig 13: each kernel under {original, full
// tainting, asymmetric tainting}, measured in real execution time of the
// interpreter (the taint instrumentation is real code, not a model).
// rounds > 1 reduces timer noise; the best round is scored, and every
// measurement runs on a fresh VM with a collected heap so allocator state
// cannot bleed between configurations. Analysis is off — this is the
// paper's fully instrumented configuration; see CaffeinemarkMode.
func Caffeinemark(rounds int) ([]CaffeineRow, error) {
	return CaffeinemarkMode(rounds, false)
}

// CaffeinemarkMode is Caffeinemark with the static taint pre-analysis
// switchable: analyze=true runs every configuration with the
// uninstrumented fast-path loop enabled (`tinman-bench -analyze=on`).
func CaffeinemarkMode(rounds int, analyze bool) ([]CaffeineRow, error) {
	if rounds <= 0 {
		rounds = 5
	}
	rows := make([]CaffeineRow, len(Kernels))
	for i, k := range Kernels {
		rows[i] = CaffeineRow{Kernel: k.Name, Score: make(map[string]float64, len(Fig13Policies))}
	}
	for i, k := range Kernels {
		best := make(map[string]time.Duration, len(Fig13Policies))
		// Interleave the configurations round-robin so that machine-level
		// noise (frequency scaling, noisy neighbours) hits all three alike,
		// and score the fastest round of each.
		for r := 0; r < rounds; r++ {
			for _, pol := range Fig13Policies {
				machine, err := newCaffeineVM(pol, false, analyze)
				if err != nil {
					return nil, err
				}
				// Short warm-up, then the timed run on a quiesced heap.
				warm := k
				warm.Arg = k.Arg / 16
				if _, err := RunKernel(machine, warm); err != nil {
					return nil, err
				}
				machine.Heap.ClearDirty()
				runtime.GC()
				start := time.Now()
				if _, err := RunKernel(machine, k); err != nil {
					return nil, err
				}
				d := time.Since(start)
				if cur, ok := best[pol.Name()]; !ok || d < cur {
					best[pol.Name()] = d
				}
			}
		}
		for name, d := range best {
			rows[i].Score[name] = float64(k.Arg) / d.Seconds()
		}
	}
	return rows, nil
}

// AverageOverheads summarizes Fig 13 the way the paper quotes it: the mean
// overhead of full and asymmetric tainting across kernels (paper: 20.1% and
// 9.6%).
func AverageOverheads(rows []CaffeineRow) (full, asym float64) {
	if len(rows) == 0 {
		return
	}
	for _, r := range rows {
		full += r.Overhead(taint.Full)
		asym += r.Overhead(taint.Asymmetric)
	}
	n := float64(len(rows))
	return full / n, asym / n
}
