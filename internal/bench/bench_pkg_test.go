package bench

import (
	"bytes"
	"sort"
	"strings"
	"testing"
	"time"

	"tinman/internal/netsim"
	"tinman/internal/taint"
)

func TestKernelsComputeCorrectResults(t *testing.T) {
	// Fixed expectations keep the kernels honest across policies: every
	// configuration must compute the same answers.
	type want struct {
		kernel string
		result int64
	}
	machineOff, err := NewCaffeineVM(taint.Off)
	if err != nil {
		t.Fatal(err)
	}
	results := make(map[string]int64)
	for _, k := range Kernels {
		r, err := RunKernel(machineOff, k)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		results[k.Name] = r
	}
	// Sieve: number of primes below 16384 is 1900 (minus 0/1 handling:
	// count of primes in [2,16384) = 1900).
	if results["Sieve"] != 1900 {
		t.Fatalf("sieve counted %d primes below 16384, want 1900", results["Sieve"])
	}
	// All policies agree on every kernel.
	for _, pol := range []taint.Policy{taint.Full, taint.Asymmetric} {
		machine, err := NewCaffeineVM(pol)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range Kernels {
			r, err := RunKernel(machine, k)
			if err != nil {
				t.Fatalf("%s under %s: %v", k.Name, pol.Name(), err)
			}
			if r != results[k.Name] {
				t.Fatalf("%s under %s = %d, want %d (tainting must not change results)",
					k.Name, pol.Name(), r, results[k.Name])
			}
		}
	}
}

func TestCaffeinemarkShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	rows, err := Caffeinemark(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Kernels) {
		t.Fatalf("rows = %d", len(rows))
	}
	var buf bytes.Buffer
	PrintFig13(&buf, rows)
	if !strings.Contains(buf.String(), "Figure 13") {
		t.Fatal("report did not render")
	}

	// The paper's qualitative claims: full tainting costs something on
	// average, and asymmetric costs less than full. The overheads are
	// measured as medians of paired runs (medianOverhead), which hold on a
	// busy machine where best-of-N timings of whole kernels do not.
	var full, asym float64
	for _, k := range Kernels {
		kf, ka := medianOverhead(t, k, taint.Full), medianOverhead(t, k, taint.Asymmetric)
		t.Logf("%-8s full %+.1f%%, asymmetric %+.1f%%", k.Name, 100*kf, 100*ka)
		full += kf / float64(len(Kernels))
		asym += ka / float64(len(Kernels))
		// String is hit hard by full tainting (§6.1); asymmetric also pays
		// there, but allow generous noise headroom.
		if k.Name == "String" {
			if kf < 0.03 {
				t.Errorf("String full-tainting overhead %.1f%%, want noticeable", 100*kf)
			}
			if ka < -0.10 {
				t.Errorf("String asymmetric overhead %.1f%%, implausibly negative", 100*ka)
			}
		}
	}
	if full <= 0 {
		t.Errorf("full tainting average overhead %.1f%%, want positive", 100*full)
	}
	if asym >= full {
		t.Errorf("asymmetric overhead %.1f%% should be below full %.1f%%", 100*asym, 100*full)
	}
}

// medianOverhead is k's slowdown under pol relative to taint.Off: the
// median ratio over many pairs of short runs of the kernel, each run on a
// fresh warmed VM, alternating which policy goes first. A pair shares the
// machine's state of the moment, and the median discards the pairs a
// preemption or a neighbour's burst hit.
func medianOverhead(t *testing.T, k Kernel, pol taint.Policy) float64 {
	const pairs, slice = 41, 8
	warm, short := k, k
	warm.Arg, short.Arg = k.Arg/64, k.Arg/slice
	ratios := make([]float64, pairs)
	for p := range ratios {
		var d [2]time.Duration // [Off, pol]
		for _, arm := range [2][2]int{{0, 1}, {1, 0}}[p%2] {
			machine, err := NewCaffeineVM([2]taint.Policy{taint.Off, pol}[arm])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := RunKernel(machine, warm); err != nil {
				t.Fatal(err)
			}
			machine.Heap.ClearDirty()
			start := time.Now()
			if _, err := RunKernel(machine, short); err != nil {
				t.Fatal(err)
			}
			d[arm] = time.Since(start)
		}
		ratios[p] = float64(d[1]) / float64(d[0])
	}
	return median(ratios) - 1
}

// median returns the middle value of xs (reordering it).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

func TestLoginLatencyShape(t *testing.T) {
	rows, err := LoginLatency(netsim.WiFi, 21)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.TinMan <= r.Baseline {
			t.Errorf("%s: tinman %v <= baseline %v", r.App, r.TinMan, r.Baseline)
		}
		if r.Overhead() > 2.5 {
			t.Errorf("%s: overhead %.2fx out of the paper's regime", r.App, r.Overhead())
		}
		if r.DSM <= 0 || r.SSLTCP <= 0 {
			t.Errorf("%s: missing breakdown %v/%v", r.App, r.DSM, r.SSLTCP)
		}
	}
	base, tinman, dsm, ssl := AverageLogin(rows)
	// Paper: 4.0s -> 5.95s, DSM 0.8s, SSL/TCP 1.2s. Accept the band.
	if base < 2*time.Second || base > 6*time.Second {
		t.Errorf("baseline average %v outside [2s,6s]", base)
	}
	if tinman-base < 1*time.Second || tinman-base > 3500*time.Millisecond {
		t.Errorf("tinman delta %v outside [1s,3.5s]", tinman-base)
	}
	if dsm < 300*time.Millisecond || dsm > 1500*time.Millisecond {
		t.Errorf("dsm average %v outside [0.3s,1.5s]", dsm)
	}
	if ssl < 500*time.Millisecond || ssl > 2*time.Second {
		t.Errorf("ssl/tcp average %v outside [0.5s,2s]", ssl)
	}
	var buf bytes.Buffer
	PrintLogin(&buf, "Figure 14", rows)
	if !strings.Contains(buf.String(), "paypal") {
		t.Fatal("report did not render")
	}
}

func TestThreeGLoginSlower(t *testing.T) {
	wifi, err := LoginLatency(netsim.WiFi, 22)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := LoginLatency(netsim.ThreeG, 22)
	if err != nil {
		t.Fatal(err)
	}
	_, wTin, _, _ := AverageLogin(wifi)
	bt, tTin, tDSM, _ := AverageLogin(tg)
	if tTin <= wTin {
		t.Errorf("3G tinman %v should exceed Wi-Fi %v", tTin, wTin)
	}
	if bt <= 0 || tDSM <= 0 {
		t.Error("3G rows incomplete")
	}
}

func TestTable3Shape(t *testing.T) {
	rows, err := Table3(23)
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]Table3Row{}
	for _, r := range rows {
		byApp[r.App] = r
	}
	// Paper's headline claims: <5% of code offloaded, <=4 syncs (we allow
	// the lock case one extra), init in the hundreds of KB, dirty a few to
	// tens of KB (scratch strings are distinct heap objects; the VM interns
	// literals, so only genuinely new data lands in the dirty set).
	for app, r := range byApp {
		if r.OffFraction <= 0 || r.OffFraction > 0.05 {
			t.Errorf("%s: offloaded fraction %.3f outside (0,0.05]", app, r.OffFraction)
		}
		if r.SyncTimes < 2 || r.SyncTimes > 5 {
			t.Errorf("%s: %d syncs", app, r.SyncTimes)
		}
		if r.InitKB < 400 || r.InitKB > 900 {
			t.Errorf("%s: init %.1fKB outside [400,900]", app, r.InitKB)
		}
		if r.DirtyKB < 2 || r.DirtyKB > 40 {
			t.Errorf("%s: dirty %.1fKB outside [2,40]", app, r.DirtyKB)
		}
	}
	// paypal offloads the most code; its dirty volume is the largest.
	if byApp["paypal"].OffCalls < byApp["ebay"].OffCalls {
		t.Error("paypal should offload the most invocations")
	}
	var buf bytes.Buffer
	PrintTable3(&buf, rows)
	if !strings.Contains(buf.String(), "Table 3") {
		t.Fatal("report did not render")
	}
}

func TestLoginStressBattery(t *testing.T) {
	// A shortened Fig 16: 6 minutes of repeated logins.
	curves, err := LoginStress(6*time.Minute, 10*time.Second, 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 2 {
		t.Fatalf("curves = %d", len(curves))
	}
	android, tinman := curves[0], curves[1]
	if android.Label != "android" || tinman.Label != "tinman" {
		t.Fatalf("labels = %s/%s", android.Label, tinman.Label)
	}
	if android.Final() >= 100 || tinman.Final() >= 100 {
		t.Fatal("no battery drain recorded")
	}
	// TinMan drains more, but only slightly (paper: 93% vs 91% after 30min).
	if tinman.Final() >= android.Final() {
		t.Errorf("tinman final %.2f%% should be below android %.2f%%", tinman.Final(), android.Final())
	}
	if android.Final()-tinman.Final() > 5 {
		t.Errorf("tinman extra drain %.2f%% too large", android.Final()-tinman.Final())
	}
	// Curves are monotonically non-increasing.
	for _, c := range curves {
		for i := 1; i < len(c.Samples); i++ {
			if c.Samples[i].Percent > c.Samples[i-1].Percent+1e-9 {
				t.Fatalf("%s: battery went up at sample %d", c.Label, i)
			}
		}
	}
	var buf bytes.Buffer
	PrintBattery(&buf, "Figure 16", curves)
	if !strings.Contains(buf.String(), "tinman") {
		t.Fatal("report did not render")
	}
}

func TestTaintingBattery(t *testing.T) {
	// A shortened Fig 17: 3 phases of 2 minutes.
	curves, err := TaintingBattery(2*time.Minute, 10*time.Second, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 2 {
		t.Fatalf("curves = %d", len(curves))
	}
	android, tainted := curves[0], curves[1]
	if android.Final() >= 100 {
		t.Fatal("no drain")
	}
	// The tainting-only difference is small (the paper's curves nearly
	// coincide): within 2 percentage points over the run.
	diff := android.Final() - tainted.Final()
	if diff < -0.5 || diff > 2 {
		t.Errorf("tainting-only drain difference %.2f%% out of band", diff)
	}
}

func TestSeparatorAndSeconds(t *testing.T) {
	var buf bytes.Buffer
	Separator(&buf, "Title")
	if !strings.Contains(buf.String(), "=====") {
		t.Fatal("separator missing")
	}
	if seconds(1500*time.Millisecond) != "1.50s" {
		t.Fatalf("seconds = %q", seconds(1500*time.Millisecond))
	}
}
