package policy

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"tinman/internal/cor"
)

func TestSnapshotValidate(t *testing.T) {
	bad := []*Snapshot{
		{Rates: map[string]RateSpec{"cc": {Max: -1, Per: time.Hour}}},
		{Rates: map[string]RateSpec{"cc": {Max: 4, Per: 0}}},
		{Rates: map[string]RateSpec{"": {Max: 4, Per: time.Hour}}},
		{ClassRates: map[string]RateSpec{"ultra": {Max: 4, Per: time.Hour}}},
		{ClassRates: map[string]RateSpec{"": {Max: 4, Per: time.Hour}}},
		{Windows: map[string]Window{"cc": {From: -1, To: 5}}},
		{Windows: map[string]Window{"cc": {From: 0, To: 24}}},
		{AuthIPs: map[string][]string{"": {"1.2.3.4"}}},
		{AuthIPs: map[string][]string{"x.com": {""}}},
		{Revoked: []string{""}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad snapshot %d validated", i)
		}
	}
	good := &Snapshot{
		Bindings:   map[string][]string{"fb-pw": {"hash-a"}},
		Whitelist:  map[string][]string{"fb-pw": {"facebook.com"}, "btc": {}},
		Windows:    map[string]Window{"cc": {From: 10, To: 22}},
		Rates:      map[string]RateSpec{"cc": {Max: 4, Per: 24 * time.Hour}},
		ClassRates: map[string]RateSpec{string(cor.ClassSensitive): {Max: 100, Per: time.Hour}},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good snapshot rejected: %v", err)
	}
}

func TestInstallSwapsWholePolicy(t *testing.T) {
	_, now := noonClock()
	e := NewEngine(now)
	install(t, e, &Snapshot{
		Bindings: map[string][]string{"fb-pw": {"old-hash"}},
		Revoked:  []string{"old-phone"},
	})

	st, err := e.Install(&Snapshot{
		Bindings:  map[string][]string{"fb-pw": {"new-hash"}},
		Whitelist: map[string][]string{"btc": {}},
		Revoked:   []string{"stolen"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Version == 0 || st.Hash == "" {
		t.Fatalf("empty install stamp %+v", st)
	}
	// The old document is fully replaced, not merged.
	if err := e.Check(Access{CorID: "fb-pw", AppHash: "old-hash"}); err == nil {
		t.Fatal("pre-install binding survived the swap")
	}
	if err := e.Check(Access{CorID: "fb-pw", AppHash: "new-hash"}); err != nil {
		t.Fatalf("installed binding denied: %v", err)
	}
	if err := e.Check(Access{CorID: "x", DeviceID: "old-phone"}); err != nil {
		t.Fatalf("pre-install revocation survived: %v", err)
	}
	if err := e.Check(Access{CorID: "x", DeviceID: "stolen"}); err == nil {
		t.Fatal("installed revocation not enforced")
	}
	if d, ok := IsDenial(e.Check(Access{CorID: "btc", Send: true, Domain: "a.com"})); !ok || d.Reason != ReasonNeverSend {
		t.Fatal("installed never-send whitelist not enforced")
	}
}

func TestInstallStaleVersionRejected(t *testing.T) {
	_, now := noonClock()
	e := NewEngine(now)
	if _, err := e.Install(&Snapshot{Version: 7}); err != nil {
		t.Fatal(err)
	}
	if e.Version() != 7 {
		t.Fatalf("version = %d, want 7", e.Version())
	}
	for _, v := range []uint64{7, 3} {
		if _, err := e.Install(&Snapshot{Version: v}); !errors.Is(err, ErrStaleSnapshot) {
			t.Fatalf("install of v%d at v7 = %v, want ErrStaleSnapshot", v, err)
		}
		if _, _, err := e.Update(func(d *Snapshot) { d.Version = v }); !errors.Is(err, ErrStaleSnapshot) {
			t.Fatalf("update to v%d at v7 = %v, want ErrStaleSnapshot", v, err)
		}
	}
	// A zero Version takes the next number, for Install and Update alike,
	// and Update hands back the document at the version it installed.
	if st := install(t, e, &Snapshot{}); st.Version != 8 {
		t.Fatalf("self-assigned install = v%d, want 8", st.Version)
	}
	doc, st, err := e.Update(func(d *Snapshot) { d.Revoke("d1") })
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != 9 || doc.Version != 9 || !slices.Equal(doc.Revoked, []string{"d1"}) {
		t.Fatalf("update = v%d, document %+v; want v9 revoking d1", st.Version, doc)
	}
	// A rejected document changes nothing.
	if e.Stamp() != st {
		t.Fatalf("stamp %+v after rejected installs, want %+v", e.Stamp(), st)
	}
}

func TestInstallCarriesRateBudget(t *testing.T) {
	clock, now := noonClock()
	_ = clock
	e := NewEngine(now)
	spec := RateSpec{Max: 2, Per: time.Hour}
	if _, err := e.Install(&Snapshot{Rates: map[string]RateSpec{"cc": spec}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Check(Access{CorID: "cc", Send: true}); err != nil {
		t.Fatal(err)
	}
	// Re-installing the same spec must not refill the budget.
	if _, err := e.Install(&Snapshot{Rates: map[string]RateSpec{"cc": spec}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Check(Access{CorID: "cc", Send: true}); err != nil {
		t.Fatalf("second unit of budget gone after reinstall: %v", err)
	}
	if err := e.Check(Access{CorID: "cc", Send: true}); err == nil {
		t.Fatal("budget refilled by hot-reload with unchanged spec")
	}
	// A changed spec resets the counter.
	if _, err := e.Install(&Snapshot{Rates: map[string]RateSpec{"cc": {Max: 3, Per: time.Hour}}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Check(Access{CorID: "cc", Send: true}); err != nil {
		t.Fatalf("fresh budget after spec change denied: %v", err)
	}
}

func TestClassRateLimit(t *testing.T) {
	_, now := noonClock()
	e := NewEngine(now)
	install(t, e, &Snapshot{ClassRates: map[string]RateSpec{string(cor.ClassSensitive): {Max: 2, Per: time.Hour}}})
	// Two different cors share the class budget.
	for i, id := range []string{"pw-a", "pw-b"} {
		if err := e.Check(Access{CorID: id, Class: cor.ClassSensitive, Send: true}); err != nil {
			t.Fatalf("send %d denied: %v", i, err)
		}
	}
	err := e.Check(Access{CorID: "pw-c", Class: cor.ClassSensitive, Send: true})
	if d, ok := IsDenial(err); !ok || d.Reason != ReasonRateLimited {
		t.Fatalf("third class send: %v", err)
	}
	// Other classes and classless accesses are unaffected.
	if err := e.Check(Access{CorID: "pub", Class: cor.ClassPublic, Send: true}); err != nil {
		t.Fatalf("public class send denied: %v", err)
	}
	if err := e.Check(Access{CorID: "legacy", Send: true}); err != nil {
		t.Fatalf("classless send denied: %v", err)
	}
}

func TestExportInstallRoundTrip(t *testing.T) {
	_, now := noonClock()
	e := NewEngine(now)
	update(t, e, func(d *Snapshot) {
		d.Bind("fb-pw", "h1")
		d.Bind("fb-pw", "h2")
		d.AllowDomains("fb-pw", []string{"facebook.com"})
		d.AllowDomains("btc", []string{})
		d.AuthIPs = map[string][]string{"facebook.com": {"31.13.64.1"}}
		d.AuthOnly = []string{"fb-pw"}
		d.Revoke("stolen")
		d.Windows = map[string]Window{"cc": {From: 10, To: 22}}
		d.Rates = map[string]RateSpec{"cc": {Max: 4, Per: 24 * time.Hour}}
		d.ClassRates = map[string]RateSpec{string(cor.ClassServerOnly): {Max: 1, Per: time.Hour}}
	})

	snap := e.Export()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}

	e2 := NewEngine(now)
	if _, err := e2.Install(&decoded); err != nil {
		t.Fatal(err)
	}
	if e.Stamp().Hash != e2.Stamp().Hash {
		t.Fatalf("hash mismatch after round trip: %s vs %s", e.Stamp().Hash, e2.Stamp().Hash)
	}
	// Spot-check semantics survived the trip, including the empty (never
	// send) whitelist, which JSON must not collapse into "unrestricted".
	if d, ok := IsDenial(e2.Check(Access{CorID: "btc", Send: true, Domain: "x.com"})); !ok || d.Reason != ReasonNeverSend {
		t.Fatal("never-send whitelist lost in round trip")
	}
	if err := e2.Check(Access{CorID: "fb-pw", AppHash: "h2", Send: true, Domain: "facebook.com", IP: "31.13.64.1"}); err != nil {
		t.Fatalf("round-tripped policy denies valid access: %v", err)
	}
	if d, ok := IsDenial(e2.Check(Access{CorID: "fb-pw", AppHash: "h2", Send: true, Domain: "facebook.com", IP: "1.1.1.1"})); !ok || d.Reason != ReasonIPNotAuthEndpoint {
		t.Fatal("auth-endpoint narrowing lost in round trip")
	}
}

func TestStampTracksMutations(t *testing.T) {
	_, now := noonClock()
	e := NewEngine(now)
	s0 := e.Stamp()
	if s0.Version != 0 || s0.Hash == "" {
		t.Fatalf("fresh engine stamp %+v", s0)
	}
	update(t, e, func(d *Snapshot) { d.Revoke("d") })
	s1 := e.Stamp()
	if s1.Version != s0.Version+1 || s1.Hash == s0.Hash {
		t.Fatalf("update did not move the stamp: %+v -> %+v", s0, s1)
	}
	st, err := e.CheckStamped(Access{CorID: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if st != s1 {
		t.Fatalf("CheckStamped stamp %+v != engine stamp %+v", st, s1)
	}
	// Undoing the change restores the content hash (hash covers rules, not
	// history) while the version keeps climbing.
	update(t, e, func(d *Snapshot) { d.Restore("d") })
	s2 := e.Stamp()
	if s2.Hash != s0.Hash || s2.Version != s1.Version+1 {
		t.Fatalf("restore stamp %+v, want hash %s version %d", s2, s0.Hash, s1.Version+1)
	}
}

func TestReasonCodeRoundTrip(t *testing.T) {
	for i := 0; i < NumReasons(); i++ {
		r := Reason(i)
		got, ok := ReasonFromCode(r.Code())
		if !ok || got != r {
			t.Fatalf("code round trip failed for %v (code %d)", r, r.Code())
		}
	}
	if _, ok := ReasonFromCode(-1); ok {
		t.Fatal("negative code accepted")
	}
	if _, ok := ReasonFromCode(NumReasons()); ok {
		t.Fatal("out-of-range code accepted")
	}
}

// TestHotSwapUnderLoad is the swap-atomicity gate: devices hammer Check
// while an admin loop installs 150 consecutive snapshots that always keep
// the devices legal. Any denial would mean a check observed a torn or
// half-applied ruleset. Run under -race (make race) this also proves no
// unsynchronized access.
func TestHotSwapUnderLoad(t *testing.T) {
	_, now := noonClock()
	e := NewEngine(now)
	base := &Snapshot{
		Bindings:  map[string][]string{"fb-pw": {"good-app"}},
		Whitelist: map[string][]string{"fb-pw": {"facebook.com"}},
	}
	if _, err := e.Install(base); err != nil {
		t.Fatal(err)
	}

	const (
		devices = 8
		swaps   = 150
	)
	var (
		wg    sync.WaitGroup
		stop  = make(chan struct{})
		fails = make(chan error, devices)
	)
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(dev int) {
			defer wg.Done()
			a := Access{
				CorID:    "fb-pw",
				AppHash:  "good-app",
				DeviceID: fmt.Sprintf("device-%d", dev),
				Send:     true,
				Domain:   "facebook.com",
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				st, err := e.CheckStamped(a)
				if err != nil {
					select {
					case fails <- fmt.Errorf("device %d denied under v%d: %w", dev, st.Version, err):
					default:
					}
					return
				}
				if st.Hash == "" {
					select {
					case fails <- fmt.Errorf("device %d got unhashed stamp v%d", dev, st.Version):
					default:
					}
					return
				}
			}
		}(d)
	}

	// Every swap adds an irrelevant revocation and re-binds the same app:
	// the document changes (new hash, new version) but stays legal for the
	// running devices throughout.
	startV := e.Version()
	for i := 0; i < swaps; i++ {
		snap := &Snapshot{
			Bindings:  map[string][]string{"fb-pw": {"good-app"}},
			Whitelist: map[string][]string{"fb-pw": {"facebook.com"}},
			Revoked:   []string{fmt.Sprintf("rotated-%d", i)},
		}
		if _, err := e.Install(snap); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-fails:
		t.Fatal(err)
	default:
	}
	if got := e.Version(); got != startV+swaps {
		t.Fatalf("version = %d, want %d", got, startV+swaps)
	}
}
