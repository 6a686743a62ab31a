package audit

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// appendAccess appends an entry with the given fields.
func appendAccess(l *Log, appHash, corID, deviceID, domain string, outcome Outcome, detail string) Entry {
	return l.AppendEntry(Entry{AppHash: appHash, CorID: corID, DeviceID: deviceID, Domain: domain, Outcome: outcome, Detail: detail})
}

func testClock() (*time.Time, func() time.Time) {
	t := time.Date(2015, 4, 21, 12, 0, 0, 0, time.UTC)
	return &t, func() time.Time { return t }
}

func TestAppendAndEntries(t *testing.T) {
	_, now := testClock()
	l := NewLog(now)
	e1 := appendAccess(l, "hash1", "pw", "dev1", "bank.com", OutcomeAllowed, "")
	e2 := appendAccess(l, "hash2", "pw", "dev1", "evil.com", OutcomeDenied, "domain")
	if e1.Seq != 1 || e2.Seq != 2 {
		t.Fatalf("seqs: %d %d", e1.Seq, e2.Seq)
	}
	if l.Len() != 2 {
		t.Fatalf("len = %d", l.Len())
	}
	all := l.Entries()
	if len(all) != 2 || all[0].CorID != "pw" {
		t.Fatalf("entries = %v", all)
	}
	if !strings.Contains(e2.String(), "denied") || !strings.Contains(e2.String(), "evil.com") {
		t.Fatalf("entry text: %s", e2.String())
	}
}

func TestSubscribe(t *testing.T) {
	_, now := testClock()
	l := NewLog(now)
	var got []Entry
	l.Subscribe(func(e Entry) { got = append(got, e) })
	appendAccess(l, "h", "c", "d", "", OutcomeAllowed, "")
	appendAccess(l, "h", "c", "d", "", OutcomeDenied, "")
	if len(got) != 2 {
		t.Fatalf("subscriber saw %d entries", len(got))
	}
}

func TestFind(t *testing.T) {
	clock, now := testClock()
	l := NewLog(now)
	appendAccess(l, "h1", "pw", "dev1", "a.com", OutcomeAllowed, "")
	*clock = clock.Add(time.Hour)
	appendAccess(l, "h2", "cc", "dev2", "b.com", OutcomeDenied, "")
	appendAccess(l, "h3", "pw", "dev2", "c.com", OutcomeDenied, "")

	if got := l.Find(Query{CorID: "pw"}); len(got) != 2 {
		t.Fatalf("by cor: %d", len(got))
	}
	if got := l.Find(Query{DeviceID: "dev2"}); len(got) != 2 {
		t.Fatalf("by device: %d", len(got))
	}
	denied := OutcomeDenied
	if got := l.Find(Query{Outcome: &denied}); len(got) != 2 {
		t.Fatalf("by outcome: %d", len(got))
	}
	if got := l.Find(Query{Since: clock.Add(-time.Minute)}); len(got) != 2 {
		t.Fatalf("by time: %d", len(got))
	}
	if got := l.Find(Query{CorID: "pw", DeviceID: "dev2"}); len(got) != 1 {
		t.Fatalf("combined: %d", len(got))
	}
}

func TestAnomalyDetection(t *testing.T) {
	_, now := testClock()
	l := NewLog(now)

	// Two denials: below threshold.
	appendAccess(l, "h", "pw", "stolen", "evil.com", OutcomeDenied, "")
	appendAccess(l, "h", "pw", "stolen", "evil.com", OutcomeDenied, "")
	if len(l.Anomalies()) != 0 {
		t.Fatal("anomaly flagged too early")
	}
	// Third within the window: flagged.
	appendAccess(l, "h", "pw", "stolen", "evil.com", OutcomeDenied, "")
	an := l.Anomalies()
	if len(an) != 1 || an[0].Denials != 3 || an[0].DeviceID != "stolen" {
		t.Fatalf("anomalies = %v", an)
	}
	if an[0].String() == "" {
		t.Fatal("empty anomaly text")
	}
}

func TestAnomalyWindowExpires(t *testing.T) {
	clock, now := testClock()
	l := NewLog(now)
	appendAccess(l, "h", "pw", "d", "", OutcomeDenied, "")
	appendAccess(l, "h", "pw", "d", "", OutcomeDenied, "")
	*clock = clock.Add(2 * time.Hour)
	appendAccess(l, "h", "pw", "d", "", OutcomeDenied, "")
	if len(l.Anomalies()) != 0 {
		t.Fatal("stale denials counted toward anomaly")
	}
}

func TestAnomalyScopedToDeviceAndCor(t *testing.T) {
	_, now := testClock()
	l := NewLog(now)
	appendAccess(l, "h", "pw", "d1", "", OutcomeDenied, "")
	appendAccess(l, "h", "pw", "d2", "", OutcomeDenied, "")
	appendAccess(l, "h", "cc", "d1", "", OutcomeDenied, "")
	if len(l.Anomalies()) != 0 {
		t.Fatal("denials across devices/cors must not aggregate")
	}
}

func TestAllowedEntriesNeverAnomalous(t *testing.T) {
	_, now := testClock()
	l := NewLog(now)
	for i := 0; i < 10; i++ {
		appendAccess(l, "h", "pw", "d", "", OutcomeAllowed, "")
	}
	if len(l.Anomalies()) != 0 {
		t.Fatal("allowed accesses flagged as anomalies")
	}
}

func TestOutcomeString(t *testing.T) {
	if OutcomeAllowed.String() != "allowed" || OutcomeDenied.String() != "denied" {
		t.Fatal("outcome names wrong")
	}
}

// buildPersistLog returns a log with n deterministic entries.
func buildPersistLog(n int) *Log {
	clock := time.Unix(0, 0)
	l := NewLog(func() time.Time { clock = clock.Add(time.Second); return clock })
	for i := 0; i < n; i++ {
		out := OutcomeAllowed
		if i%4 == 0 {
			out = OutcomeDenied
		}
		appendAccess(l, "hash", "cor-1", "dev-1", "example.com", out, "d")
	}
	return l
}

// TestRestoreResumesSeq pins the exported Restore: the sequence counter
// continues after the highest restored Seq and anomalies are rescanned.
func TestRestoreResumesSeq(t *testing.T) {
	src := buildPersistLog(8)
	l := NewLog(nil)
	l.Restore(src.Entries())
	if !reflect.DeepEqual(wireForms(t, src.Entries()), wireForms(t, l.Entries())) {
		t.Fatal("restore diverged")
	}
	if len(l.Anomalies()) != len(src.Anomalies()) {
		t.Fatal("restore lost anomalies")
	}
	e := appendAccess(l, "h", "c", "d", "dom", OutcomeAllowed, "")
	if e.Seq != 9 {
		t.Fatalf("post-restore Seq = %d, want 9", e.Seq)
	}
}

// wireForms renders entries in their JSON-lines encoding so logs compare
// equal regardless of in-memory time representation (monotonic readings,
// location pointers).
func wireForms(t *testing.T, entries []Entry) []string {
	t.Helper()
	out := make([]string, len(entries))
	for i, e := range entries {
		b, err := e.WireJSON()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	return out
}
