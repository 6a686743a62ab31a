package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"tinman/internal/taint"
)

// This file is the machine-readable side of Fig 13: `tinman-bench -json`
// (and `make bench-json`) append a run to BENCH_vm.json so interpreter
// performance can be tracked across commits. The schema is deliberately
// flat — one entry per kernel×policy with ns/op and allocs/op — so any
// plotting script can consume it without knowing the harness. It also
// holds what the three BENCH_*.json trajectories share: the run header
// and the appender.

// RunHeader opens every trajectory run: its label and time, and the
// commit, Go version, GOMAXPROCS and CPU that produced its numbers.
type RunHeader struct {
	Label      string `json:"label"`
	Time       string `json:"time"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
}

// newRunHeader stamps a header for a run labelled label, made now by this
// binary on this machine.
func newRunHeader(label string) RunHeader {
	return RunHeader{
		Label:      label,
		Time:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
	}
}

// commit is the VCS revision the binary was built from, with "+dirty" for
// a modified tree. `go build` in a git checkout stamps it; `go run` and
// test binaries do not, and read "unknown".
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// cpuModel is the first "model name" in /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// AppendRun appends run to the trajectory {"runs": [...]} at path,
// creating the file on first use. Earlier runs are carried over as raw
// JSON, keeping their keys, values and number spellings (only whitespace
// is re-indented), so a field later added to or dropped from a run type
// never edits a past run.
func AppendRun(path string, run any) error {
	var file struct {
		Runs []json.RawMessage `json:"runs"`
	}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			return fmt.Errorf("bench: %s exists but is not a bench trajectory: %v", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	raw, err := json.Marshal(run)
	if err != nil {
		return fmt.Errorf("bench: encoding a run for %s: %w", path, err)
	}
	file.Runs = append(file.Runs, raw)
	data, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// VMBenchEntry is one kernel under one interpreter configuration.
type VMBenchEntry struct {
	Kernel string `json:"kernel"`
	// Policy is "off", "full" or "asymmetric"; the reference-interpreter
	// baseline (no linking, no inline caches) is recorded as
	// "off-reference".
	Policy      string  `json:"policy"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Score is the Caffeinemark-style work-units-per-second figure.
	Score float64 `json:"score"`
	// Analysis records whether the static taint pre-analysis fast path
	// (vm/taintflow.go) was enabled for this entry: "on" or "off". The
	// reference-interpreter baseline is always "off".
	Analysis string `json:"analysis"`
}

// VMBenchRun is one invocation of the emitter.
type VMBenchRun struct {
	RunHeader
	Rounds  int            `json:"rounds"`
	Entries []VMBenchEntry `json:"entries"`
	// GeomeanOffNs summarizes the untainted kernels: the geometric mean of
	// their ns/op (the number the linking optimization is gated on).
	GeomeanOffNs float64 `json:"geomean_off_ns"`
}

// measureKernel times one kernel on one VM configuration: best wall time of
// `rounds` runs, and the allocation count of a single post-warm-up run.
func measureKernel(k Kernel, policy taint.Policy, reference, analyze bool, rounds int) (VMBenchEntry, error) {
	name := policy.Name()
	if reference {
		name += "-reference"
		analyze = false // the reference interpreter has no fast path
	}
	mode := "off"
	if analyze {
		mode = "on"
	}
	best := time.Duration(math.MaxInt64)
	var allocs uint64
	for r := 0; r < rounds; r++ {
		machine, err := newCaffeineVM(policy, reference, analyze)
		if err != nil {
			return VMBenchEntry{}, err
		}
		warm := k
		warm.Arg = k.Arg / 16
		if _, err := RunKernel(machine, warm); err != nil {
			return VMBenchEntry{}, err
		}
		machine.Heap.ClearDirty()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		if _, err := RunKernel(machine, k); err != nil {
			return VMBenchEntry{}, err
		}
		d := time.Since(start)
		runtime.ReadMemStats(&after)
		if d < best {
			best = d
			allocs = after.Mallocs - before.Mallocs
		}
	}
	return VMBenchEntry{
		Kernel:      k.Name,
		Policy:      name,
		NsPerOp:     float64(best.Nanoseconds()),
		AllocsPerOp: float64(allocs),
		Score:       float64(k.Arg) / best.Seconds(),
		Analysis:    mode,
	}, nil
}

// MeasureVMBench runs the full kernel grid: every kernel under the three
// Fig 13 policies on the linked interpreter — with the static taint
// pre-analysis on or off per analyze — plus the untainted reference
// interpreter as the linking baseline.
func MeasureVMBench(label string, rounds int, analyze bool) (VMBenchRun, error) {
	if rounds <= 0 {
		rounds = 5
	}
	run := VMBenchRun{RunHeader: newRunHeader(label), Rounds: rounds}
	logOff := 0.0
	for _, k := range Kernels {
		for _, pol := range Fig13Policies {
			e, err := measureKernel(k, pol, false, analyze, rounds)
			if err != nil {
				return run, err
			}
			run.Entries = append(run.Entries, e)
			if pol.Name() == "off" {
				logOff += math.Log(e.NsPerOp)
			}
		}
		ref, err := measureKernel(k, taint.Off, true, false, rounds)
		if err != nil {
			return run, err
		}
		run.Entries = append(run.Entries, ref)
	}
	run.GeomeanOffNs = math.Exp(logOff / float64(len(Kernels)))
	return run, nil
}

// PrintVMBenchRun renders a run the way `go test -bench` would, for the
// operator watching the emitter.
func PrintVMBenchRun(w io.Writer, run VMBenchRun) {
	fmt.Fprintf(w, "vm bench %q (%s, %s, best of %d):\n", run.Label, run.Time, run.GoVersion, run.Rounds)
	for _, e := range run.Entries {
		fmt.Fprintf(w, "  %-8s %-16s %12.0f ns/op %10.0f allocs/op %14.0f score\n",
			e.Kernel, e.Policy, e.NsPerOp, e.AllocsPerOp, e.Score)
	}
	fmt.Fprintf(w, "  geomean(off) %.0f ns/op\n", run.GeomeanOffNs)
}
