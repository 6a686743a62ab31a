package bench

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"tinman/internal/taint"
	"tinman/internal/vm"
)

// TestFig13TracingGuard pins the observability cost on the Fig 13 hot path.
// The tracing-disabled interpreter (Hooks zero) pays exactly one nil check
// per Thread.Run, so its regression versus the pre-obs interpreter is
// bounded by the cost of the whole Run wrapper. The guard bounds that cost
// two ways:
//
//   - by construction: the hook fires once per Run however many
//     instructions the Run executes, and the engaged path allocates nothing
//     the disabled path does not;
//   - by timing, under the 2% budget: for each kernel, many fresh VMs each
//     run a short slice of the kernel twice — hook engaged and disabled,
//     alternating which goes first — and the guard asserts on the geomean
//     over kernels of each kernel's median paired ratio. The two runs of a
//     pair share a VM and the machine's state of the moment, and the
//     median discards the pairs a preemption or a neighbour's burst hit, so
//     the check holds on a busy machine, while a wrapper that costs a fixed
//     share of every Run still fails it.
//
// The drift versus BENCH_vm.json's latest run is only logged.
func TestFig13TracingGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	for _, k := range Kernels {
		small := k
		small.Arg = k.Arg / 16
		for _, kk := range []Kernel{small, k} {
			machine := newGuardVM(t)
			var calls, instrs uint64
			machine.Hooks.OnRunStats = func(n, _ uint64, _ vm.StopReason) { calls++; instrs += n }
			if _, err := RunKernel(machine, kk); err != nil {
				t.Fatal(err)
			}
			if calls != 1 || instrs != machine.Instrs {
				t.Errorf("%s(%d): hook fired %d times for one Run of %d instructions", k.Name, kk.Arg, calls, machine.Instrs)
			}
		}
	}
	tiny := Kernel{Name: "tiny", Method: Kernels[0].Method, Arg: 8}
	if engaged, disabled := runAllocs(t, tiny, true), runAllocs(t, tiny, false); engaged != disabled {
		t.Errorf("hook-engaged Run allocates %.0f times, disabled %.0f", engaged, disabled)
	}

	const pairs, slice = 101, 8
	logSum, disabledNs := 0.0, map[string]float64{}
	for _, k := range Kernels {
		warm, short := k, k
		warm.Arg, short.Arg = k.Arg/64, k.Arg/slice
		ratios := make([]float64, pairs)
		disabled := make([]float64, pairs)
		for p := range ratios {
			machine := newGuardVM(t)
			if _, err := RunKernel(machine, warm); err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			var d [2]time.Duration // [disabled, engaged]
			for _, arm := range [2][2]int{{0, 1}, {1, 0}}[p%2] {
				d[arm] = timeRun(t, machine, short, arm == 1)
			}
			ratios[p] = float64(d[1]) / float64(d[0])
			disabled[p] = float64(d[0].Nanoseconds())
		}
		ratio := median(ratios)
		logSum += math.Log(ratio)
		disabledNs[k.Name] = slice * median(disabled)
		t.Logf("%-8s disabled ~%v per full run, median hook-engaged/disabled ratio %.4f",
			k.Name, time.Duration(disabledNs[k.Name]), ratio)
	}
	geomean := math.Exp(logSum / float64(len(Kernels)))
	t.Logf("geomean of median paired ratios: %.4f", geomean)
	if geomean >= 1.02 {
		t.Errorf("obs hook wrapper costs %.1f%% on the Fig 13 geomean, budget is 2%%", 100*(geomean-1))
	}

	logDriftVsRecorded(t, disabledNs)
}

func newGuardVM(t *testing.T) *vm.VM {
	machine, err := NewCaffeineVM(taint.Off)
	if err != nil {
		t.Fatal(err)
	}
	return machine
}

// timeRun times one run of k on machine, with a no-op OnRunStats hook
// engaged or not.
func timeRun(t *testing.T, machine *vm.VM, k Kernel, hook bool) time.Duration {
	machine.Hooks.OnRunStats = nil
	if hook {
		machine.Hooks.OnRunStats = func(uint64, uint64, vm.StopReason) {}
	}
	machine.Heap.ClearDirty()
	start := time.Now()
	if _, err := RunKernel(machine, k); err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

// runAllocs counts the allocations of one Run of k, hook engaged or not.
func runAllocs(t *testing.T, k Kernel, hook bool) float64 {
	machine := newGuardVM(t)
	if hook {
		machine.Hooks.OnRunStats = func(uint64, uint64, vm.StopReason) {}
	}
	return testing.AllocsPerRun(50, func() {
		if _, err := RunKernel(machine, k); err != nil {
			t.Fatal(err)
		}
	})
}

// median returns the middle value of xs (reordering it).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// logDriftVsRecorded reports (without asserting — recorded numbers come
// from other machines and loads) how the tracing-disabled kernels compare
// to the newest run in BENCH_vm.json.
func logDriftVsRecorded(t *testing.T, disabledNs map[string]float64) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_vm.json"))
	if err != nil {
		t.Logf("no BENCH_vm.json to compare against: %v", err)
		return
	}
	var file struct{ Runs []VMBenchRun }
	if err := json.Unmarshal(data, &file); err != nil || len(file.Runs) == 0 {
		t.Logf("BENCH_vm.json unusable: %v", err)
		return
	}
	last := file.Runs[len(file.Runs)-1]
	logSum, n := 0.0, 0
	for _, e := range last.Entries {
		if e.Policy != "off" || e.NsPerOp <= 0 {
			continue
		}
		if cur, ok := disabledNs[e.Kernel]; ok {
			logSum += math.Log(cur / e.NsPerOp)
			n++
		}
	}
	if n == 0 {
		t.Logf("BENCH_vm.json run %q has no comparable entries", last.Label)
		return
	}
	drift := math.Exp(logSum / float64(n))
	t.Logf("geomean drift vs BENCH_vm.json run %q: %.3fx (informational)", last.Label, drift)
}
