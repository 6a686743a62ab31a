package audit

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// exportJSONL renders l the way tinman-audit -json does: one WireJSON line
// per entry.
func exportJSONL(t *testing.T, l *Log) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	for _, e := range l.Entries() {
		line, err := e.WireJSON()
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return &buf
}

func TestWriteReadRoundTrip(t *testing.T) {
	_, now := testClock()
	l := NewLog(now)
	appendAccess(l, "h1", "pw", "dev1", "a.com", OutcomeAllowed, "first")
	appendAccess(l, "h2", "cc", "dev2", "b.com", OutcomeDenied, "second")

	buf := exportJSONL(t, l)
	if strings.Count(buf.String(), "\n") != 2 {
		t.Fatalf("want 2 JSON lines, got %q", buf.String())
	}

	l2 := NewLog(now)
	n, err := l2.ReadFrom(buf)
	if err != nil || n != 2 {
		t.Fatalf("read %d, %v", n, err)
	}
	got := l2.Entries()
	if got[0].CorID != "pw" || got[1].Outcome != OutcomeDenied || got[1].Detail != "second" {
		t.Fatalf("entries = %+v", got)
	}
	// Sequence numbering resumes.
	e := appendAccess(l2, "h3", "x", "d", "", OutcomeAllowed, "")
	if e.Seq != 3 {
		t.Fatalf("resumed seq = %d, want 3", e.Seq)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	l := NewLog(nil)
	if _, err := l.ReadFrom(strings.NewReader("{not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := l.ReadFrom(strings.NewReader(`{"seq":1,"time":"2015-04-21T00:00:00Z","outcome":9}` + "\n")); err == nil {
		t.Fatal("invalid outcome accepted")
	}
}

// TestSaveLoadFile saves an export file and loads it back, as tinman-audit
// does with its file arguments.
func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "audit.jsonl")

	_, now := testClock()
	l := NewLog(now)
	for i := 0; i < 10; i++ {
		appendAccess(l, "h", "pw", "dev", "d.com", OutcomeAllowed, "")
	}
	if err := os.WriteFile(path, exportJSONL(t, l).Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
	l2 := NewLog(now)
	if err := l2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if l2.Len() != 10 {
		t.Fatalf("loaded %d entries", l2.Len())
	}
	// Loading a missing file yields an empty log, not an error.
	l3 := NewLog(now)
	if err := l3.LoadFile(filepath.Join(dir, "absent.jsonl")); err != nil {
		t.Fatal(err)
	}
	if l3.Len() != 0 {
		t.Fatal("missing file produced entries")
	}
}

func TestRescanAnomaliesAfterLoad(t *testing.T) {
	_, now := testClock()
	l := NewLog(now)
	for i := 0; i < 3; i++ {
		appendAccess(l, "h", "pw", "stolen", "evil.com", OutcomeDenied, "")
	}
	if len(l.Anomalies()) != 1 {
		t.Fatal("setup: anomaly not detected live")
	}
	buf := exportJSONL(t, l)

	l2 := NewLog(now)
	if _, err := l2.ReadFrom(buf); err != nil {
		t.Fatal(err)
	}
	if len(l2.Anomalies()) != 1 {
		t.Fatalf("loaded log has %d anomalies, want 1", len(l2.Anomalies()))
	}
}

func TestTimesSurviveRoundTrip(t *testing.T) {
	clock, now := testClock()
	l := NewLog(now)
	appendAccess(l, "h", "pw", "d", "", OutcomeAllowed, "")
	*clock = clock.Add(90 * time.Minute)
	appendAccess(l, "h", "pw", "d", "", OutcomeDenied, "")

	l2 := NewLog(now)
	if _, err := l2.ReadFrom(exportJSONL(t, l)); err != nil {
		t.Fatal(err)
	}
	es := l2.Entries()
	if es[1].Time.Sub(es[0].Time) != 90*time.Minute {
		t.Fatalf("time delta = %v", es[1].Time.Sub(es[0].Time))
	}
}
