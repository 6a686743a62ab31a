package audit

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// scanAnomalies is the detector the per-pair denial windows replaced, kept
// as the reference: entries go to their shards in stream order, and each
// denial scans back over its shard, stopping at the first entry older than
// AnomalyWindow, counting its pair's denials.
func scanAnomalies(entries []Entry) []Anomaly {
	var l Log // only for shardFor
	shards := map[*shard][]Entry{}
	var out []Anomaly
	for _, e := range entries {
		sh := l.shardFor(e.DeviceID, e.CorID)
		shards[sh] = append(shards[sh], e)
		if e.Outcome != OutcomeDenied {
			continue
		}
		all := shards[sh]
		cutoff := e.Time.Add(-AnomalyWindow)
		count := 0
		for i := len(all) - 1; i >= 0; i-- {
			ent := all[i]
			if ent.Time.Before(cutoff) {
				break
			}
			if ent.Outcome == OutcomeDenied && ent.DeviceID == e.DeviceID && ent.CorID == e.CorID {
				count++
			}
		}
		if count >= AnomalyThreshold {
			out = append(out, Anomaly{
				Time: e.Time, DeviceID: e.DeviceID, CorID: e.CorID,
				Denials: count, Window: AnomalyWindow,
			})
		}
	}
	return out
}

// sameAnomalies fails unless got and want hold the same anomalies in the
// same order.
func sameAnomalies(t *testing.T, what string, got, want []Anomaly) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d anomalies, reference %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !g.Time.Equal(w.Time) || g.DeviceID != w.DeviceID || g.CorID != w.CorID ||
			g.Denials != w.Denials || g.Window != w.Window {
			t.Fatalf("%s: anomaly %d = %+v, reference %+v", what, i, g, w)
		}
	}
}

// appendRandomStream appends n seeded entries to l, stepping *clock before
// each. Several devices and cors, both outcomes, clock steps of zero, a few
// seconds, exact fractions of the window and longer than the window, and
// bursts of denials that carry one pair over the threshold again and again.
func appendRandomStream(l *Log, clock *time.Time, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	steps := []time.Duration{
		0, time.Second, 17 * time.Second, 20 * time.Minute, 30 * time.Minute,
		AnomalyWindow, AnomalyWindow + time.Nanosecond, 2 * AnomalyWindow,
	}
	step := func() time.Duration {
		if rng.Intn(8) == 0 {
			return steps[rng.Intn(len(steps))]
		}
		return time.Duration(rng.Intn(90)) * time.Second
	}
	for i := 0; i < n; {
		dev := fmt.Sprintf("dev-%d", rng.Intn(4))
		corID := fmt.Sprintf("cor-%d", rng.Intn(3))
		burst := 1
		if rng.Intn(10) == 0 {
			burst = 2 + rng.Intn(5)
		}
		for ; burst > 0 && i < n; burst-- {
			*clock = clock.Add(step())
			out := OutcomeAllowed
			if burst > 1 || rng.Intn(3) == 0 {
				out = OutcomeDenied
			}
			appendAccess(l, "h", corID, dev, "d.com", out, "")
			i++
		}
	}
}

// TestAnomaliesMatchScan drives seeded streams through live appends,
// Restore and a JSON-lines load, and checks each reports exactly the
// reference scan's anomalies, in the same order.
func TestAnomaliesMatchScan(t *testing.T) {
	crossings := 0
	for seed := int64(1); seed <= 12; seed++ {
		clock, now := testClock()
		live := NewLog(now)
		appendRandomStream(live, clock, seed, 3000)
		entries := live.Entries()
		want := scanAnomalies(entries)
		sameAnomalies(t, fmt.Sprintf("seed %d live", seed), live.Anomalies(), want)

		restored := NewLog(nil)
		restored.Restore(entries)
		sameAnomalies(t, fmt.Sprintf("seed %d Restore", seed), restored.Anomalies(), want)

		loaded := NewLog(nil)
		if _, err := loaded.ReadFrom(exportJSONL(t, live)); err != nil {
			t.Fatal(err)
		}
		sameAnomalies(t, fmt.Sprintf("seed %d ReadFrom", seed), loaded.Anomalies(), want)

		// A pair crosses the threshold whenever an anomaly reads exactly
		// AnomalyThreshold denials.
		perPair := map[pair]int{}
		for _, a := range want {
			if a.Denials == AnomalyThreshold {
				perPair[pair{a.DeviceID, a.CorID}]++
			}
		}
		for _, c := range perPair {
			if c > 1 {
				crossings++
			}
		}
	}
	if crossings == 0 {
		t.Fatal("no pair crossed the threshold twice; the comparison misses window expiry")
	}
}

// FuzzReadFrom feeds arbitrary bytes to the JSON-lines decoder that
// tinman-audit loads files and -merge inputs with. It must never panic, and
// a stream it accepts, re-encoded line by line with WireJSON, must load to
// the same entries and anomalies; a stream in time order must also report
// the reference scan's anomalies.
func FuzzReadFrom(f *testing.F) {
	clock, now := testClock()
	l := NewLog(now)
	appendAccess(l, "h", "pw", "dev-1", "bank.com", OutcomeAllowed, "")
	for i := 0; i < AnomalyThreshold; i++ {
		*clock = clock.Add(time.Minute)
		appendAccess(l, "h", "pw", "stolen", "evil.com", OutcomeDenied, "domain")
	}
	var seed bytes.Buffer
	for _, e := range l.Entries() {
		line, err := e.WireJSON()
		if err != nil {
			f.Fatal(err)
		}
		seed.Write(line)
		seed.WriteByte('\n')
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"seq":1,"time":"2015-04-21T12:00:00+02:00","outcome":1}` + "\n" + `{"seq":1}`))
	f.Add([]byte("{not json"))

	f.Fuzz(func(t *testing.T, data []byte) {
		l := NewLog(nil)
		n, err := l.ReadFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		entries, err := readEntries(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("decoded once, refused the second time: %v", err)
		}
		var buf bytes.Buffer
		for _, e := range entries {
			line, err := e.WireJSON()
			if err != nil {
				t.Fatalf("accepted entry %+v does not re-encode: %v", e, err)
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
		again := NewLog(nil)
		if n2, err := again.ReadFrom(&buf); err != nil || n2 != n {
			t.Fatalf("re-encoded stream loaded %d of %d entries: %v", n2, n, err)
		}
		if !reflect.DeepEqual(wireForms(t, again.Entries()), wireForms(t, l.Entries())) {
			t.Fatal("re-encoded stream loaded different entries")
		}
		sameAnomalies(t, "re-encoded", again.Anomalies(), l.Anomalies())
		for i := 1; i < len(entries); i++ {
			if entries[i].Time.Before(entries[i-1].Time) {
				return
			}
		}
		sameAnomalies(t, "time-ordered stream", l.Anomalies(), scanAnomalies(entries))
	})
}

// resealMix returns n entries in the mix of tinbench's reseal workload: 64
// devices, 4 cors, one entry in 16 denied, a millisecond apart, so every
// entry is inside one anomaly window.
func resealMix(n int) []Entry {
	rng := rand.New(rand.NewSource(1))
	start := time.Date(2015, 4, 21, 12, 0, 0, 0, time.UTC)
	out := make([]Entry, n)
	for i := range out {
		out[i] = Entry{
			Seq: uint64(i + 1), Time: start.Add(time.Duration(i) * time.Millisecond),
			AppHash: "h", CorID: fmt.Sprintf("cor-%d", rng.Intn(4)),
			DeviceID: fmt.Sprintf("dev-%02d", rng.Intn(64)), Domain: "d.com",
		}
		if i%16 == 0 {
			out[i].Outcome = OutcomeDenied
		}
	}
	return out
}

// BenchmarkDenialAppend times a denied AppendEntry on a log that already
// holds the given number of reseal-mix entries, all inside the window.
func BenchmarkDenialAppend(b *testing.B) {
	for _, n := range []int{0, 50_000, 200_000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			mix := resealMix(n)
			now := time.Date(2015, 4, 21, 12, 0, 0, 0, time.UTC).Add(time.Duration(n) * time.Millisecond)
			l := NewLog(func() time.Time { return now })
			l.Restore(mix)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.AppendEntry(Entry{AppHash: "h", CorID: "cor-0", DeviceID: "dev-00", Domain: "evil.com", Outcome: OutcomeDenied})
			}
		})
	}
}

// BenchmarkRestore times loading 200,000 reseal-mix entries, anomaly
// detection included: node recovery and tinman-audit's load.
func BenchmarkRestore(b *testing.B) {
	mix := resealMix(200_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewLog(nil).Restore(mix)
	}
}

// TestConcurrentDenials appends denials for shared pairs from several
// goroutines at a fixed clock, so every denial is inside the window: each
// pair's anomalies must read AnomalyThreshold, AnomalyThreshold+1, ... n
// denials, once each, where n is the pair's denial count.
func TestConcurrentDenials(t *testing.T) {
	_, now := testClock()
	l := NewLog(now)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				out := OutcomeAllowed
				if i%4 == 0 {
					out = OutcomeDenied
				}
				appendAccess(l, "h", fmt.Sprintf("cor-%d", i%3), fmt.Sprintf("dev-%d", g%4), "d.com", out, "")
			}
		}(g)
	}
	wg.Wait()
	want := map[pair][]int{}
	n := map[pair]int{}
	for _, e := range l.Entries() {
		if e.Outcome != OutcomeDenied {
			continue
		}
		k := pair{e.DeviceID, e.CorID}
		n[k]++
		if n[k] >= AnomalyThreshold {
			want[k] = append(want[k], n[k])
		}
	}
	got := map[pair][]int{}
	for _, a := range l.Anomalies() {
		k := pair{a.DeviceID, a.CorID}
		got[k] = append(got[k], a.Denials)
	}
	for _, counts := range got {
		sort.Ints(counts)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("anomaly denial counts per pair:\n got %v\nwant %v", got, want)
	}
}
