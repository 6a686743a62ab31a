package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestAppendVMBenchBuildsTrajectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_vm.json")
	mk := func(label string, ns float64) VMBenchRun {
		return VMBenchRun{
			RunHeader:    RunHeader{Label: label, Time: "2026-08-05T00:00:00Z", GoVersion: "go-test"},
			Rounds:       1,
			Entries:      []VMBenchEntry{{Kernel: "Sieve", Policy: "off", NsPerOp: ns, AllocsPerOp: 7, Score: 1}},
			GeomeanOffNs: ns,
		}
	}
	if err := AppendRun(path, mk("before", 100)); err != nil {
		t.Fatal(err)
	}
	if err := AppendRun(path, mk("after", 50)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct{ Runs []VMBenchRun }
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("trajectory is not valid JSON: %v", err)
	}
	if len(file.Runs) != 2 || file.Runs[0].Label != "before" || file.Runs[1].Label != "after" {
		t.Fatalf("trajectory = %+v", file.Runs)
	}
	var buf bytes.Buffer
	PrintVMBenchRun(&buf, file.Runs[1])
	if !strings.Contains(buf.String(), "Sieve") || !strings.Contains(buf.String(), "geomean") {
		t.Fatalf("render missing fields:\n%s", buf.String())
	}
	// A corrupt file must refuse to append rather than silently overwrite.
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AppendRun(path, mk("x", 1)); err == nil {
		t.Fatal("appended over a corrupt trajectory")
	}
}

// TestAppendRunKeepsPastRuns appends to a trajectory whose runs carry keys
// today's run types lack (and lack keys they have). Every earlier run must
// keep its keys, values and number spellings; the only byte that changes
// ahead of the new run is the separator after the formerly last run.
func TestAppendRunKeepsPastRuns(t *testing.T) {
	past := []json.RawMessage{
		json.RawMessage(`{"label":"old","time":"2026-01-01T00:00:00Z","retired_knob":"x","entries":[{"kernel":"Sieve","ns_per_op":1.50e3}]}`),
		json.RawMessage(`{"label":"older","nested":{"a":[1,2.0,null,true]},"entries":[]}`),
	}
	old, err := json.MarshalIndent(struct {
		Runs []json.RawMessage `json:"runs"`
	}{past}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	old = append(old, '\n')
	path := filepath.Join(t.TempDir(), "BENCH_vm.json")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	run := VMBenchRun{RunHeader: newRunHeader("new"), Rounds: 1}
	if err := AppendRun(path, run); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	keep := bytes.TrimSuffix(old, []byte("\n  ]\n}\n"))
	if !bytes.HasPrefix(data, append(keep, ',')) {
		t.Fatalf("earlier runs rewritten:\nbefore:\n%s\nafter:\n%s", old, data)
	}
	var file struct{ Runs []map[string]any }
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Runs) != 3 {
		t.Fatalf("got %d runs, want 3", len(file.Runs))
	}
	for i, raw := range past {
		var want map[string]any
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(file.Runs[i], want) {
			t.Fatalf("run %d = %v, want %v", i, file.Runs[i], want)
		}
	}
	for _, k := range []string{"label", "go_version", "commit", "gomaxprocs", "nproc", "cpu", "rounds"} {
		if _, ok := file.Runs[2][k]; !ok {
			t.Fatalf("new run lacks %q: %v", k, file.Runs[2])
		}
	}
}
