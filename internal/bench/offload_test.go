package bench

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"tinman/internal/netsim"
)

// TestOffloadShape pins the claim the warm-up pipeline makes: on every
// login app the warm path resumes the offloaded thread faster than the
// cold path, ships only a small dirty delta at the trigger, and never
// falls back (in a fault-free world the speculation always lands).
func TestOffloadShape(t *testing.T) {
	rows, err := Offload(netsim.WiFi, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("expected 4 apps, got %d", len(rows))
	}
	for _, r := range rows {
		if r.WarmTTE <= 0 || r.ColdTTE <= 0 {
			t.Fatalf("%s: missing trigger-to-exec latencies: %+v", r.App, r)
		}
		if r.WarmTTE >= r.ColdTTE {
			t.Fatalf("%s: warm trigger-to-exec %v not faster than cold %v", r.App, r.WarmTTE, r.ColdTTE)
		}
		if r.Speedup() < 2 {
			t.Fatalf("%s: speedup %.2fx under 2x — speculation bought almost nothing", r.App, r.Speedup())
		}
		if r.WarmHits != 1 || r.WarmMisses != 0 {
			t.Fatalf("%s: warm hit/miss = %d/%d, want 1/0", r.App, r.WarmHits, r.WarmMisses)
		}
		if r.WarmupBytes == 0 || r.WarmupChunks == 0 {
			t.Fatalf("%s: no background warm-up stream recorded: %+v", r.App, r)
		}
		// The trigger-time delta must be a small fraction of what the cold
		// path ships at the trigger ("init-bytes-at-trigger ≈ dirty bytes").
		if r.WarmTriggerBytes == 0 || r.WarmTriggerBytes > r.ColdTriggerBytes/10 {
			t.Fatalf("%s: warm trigger sync %dB not a small delta of the cold %dB snapshot",
				r.App, r.WarmTriggerBytes, r.ColdTriggerBytes)
		}
		// The warm stream carries what the cold trigger would have: same
		// order of magnitude, since both serialize the framework heap once.
		if r.WarmupBytes < r.ColdTriggerBytes/2 {
			t.Fatalf("%s: warm-up stream %dB implausibly small next to the cold %dB snapshot",
				r.App, r.WarmupBytes, r.ColdTriggerBytes)
		}
	}
}

// TestOffloadJSONRoundTrip checks the emitter produces entries and a run
// header that survive the append/decode cycle the trajectory's readers
// depend on.
func TestOffloadJSONRoundTrip(t *testing.T) {
	run, err := MeasureOffload("test", netsim.WiFi, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Entries) != 4 || run.Profile != "wifi" {
		t.Fatalf("run = %+v", run)
	}
	for _, e := range run.Entries {
		if e.Speedup <= 1 || e.WarmTriggerToExecNs <= 0 {
			t.Fatalf("entry %+v", e)
		}
	}
	path := t.TempDir() + "/BENCH_offload.json"
	for i := 0; i < 2; i++ {
		if err := AppendRun(path, run); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct{ Runs []OffloadRun }
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Runs) != 2 || !reflect.DeepEqual(file.Runs[1], run) {
		t.Fatalf("decoded trajectory %+v, want two copies of %+v", file.Runs, run)
	}
	if h := run.RunHeader; h.GoVersion == "" || h.GOMAXPROCS <= 0 || h.NumCPU <= 0 || h.Commit == "" || h.CPU == "" {
		t.Fatalf("run header incomplete: %+v", h)
	}
	var sb strings.Builder
	rows, err := Offload(netsim.WiFi, 42)
	if err != nil {
		t.Fatal(err)
	}
	PrintOffload(&sb, rows)
	for _, app := range []string{"paypal", "ebay", "github", "askfm"} {
		if !strings.Contains(sb.String(), app) {
			t.Fatalf("printed table missing %s:\n%s", app, sb.String())
		}
	}
}

// BenchmarkOffload keeps the warm-vs-cold comparison inside the bench-smoke
// gate (one iteration via `make bench-smoke`); real runs go through `make
// bench-offload`.
func BenchmarkOffload(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Offload(netsim.WiFi, 42); err != nil {
			b.Fatal(err)
		}
	}
}
