package policy

import (
	"testing"
	"testing/quick"
	"time"
)

// fixedClock returns a controllable time source.
func fixedClock(start time.Time) (*time.Time, func() time.Time) {
	t := start
	return &t, func() time.Time { return t }
}

func noonClock() (*time.Time, func() time.Time) {
	return fixedClock(time.Date(2015, 4, 21, 12, 0, 0, 0, time.UTC)) // EuroSys'15 day 1
}

// install publishes doc on e or fails the test.
func install(t *testing.T, e *Engine, doc *Snapshot) Stamp {
	t.Helper()
	st, err := e.Install(doc)
	if err != nil {
		t.Fatalf("install: %v", err)
	}
	return st
}

// update edits e's installed document or fails the test.
func update(t *testing.T, e *Engine, edit func(*Snapshot)) {
	t.Helper()
	if _, _, err := e.Update(edit); err != nil {
		t.Fatalf("update: %v", err)
	}
}

func TestAppBinding(t *testing.T) {
	_, now := noonClock()
	e := NewEngine(now)
	install(t, e, &Snapshot{Bindings: map[string][]string{"fb-pw": {"hash-official"}}})

	if err := e.Check(Access{CorID: "fb-pw", AppHash: "hash-official"}); err != nil {
		t.Fatalf("bound app denied: %v", err)
	}
	err := e.Check(Access{CorID: "fb-pw", AppHash: "hash-phishing"})
	d, ok := IsDenial(err)
	if !ok || d.Reason != ReasonAppNotBound {
		t.Fatalf("phishing app: %v", err)
	}
	// A cor with no bindings is accessible by any app (binding is opt-in).
	if err := e.Check(Access{CorID: "unbound", AppHash: "whatever"}); err != nil {
		t.Fatalf("unbound cor denied: %v", err)
	}
}

func TestDomainWhitelist(t *testing.T) {
	_, now := noonClock()
	e := NewEngine(now)
	install(t, e, &Snapshot{Whitelist: map[string][]string{"fb-pw": {"facebook.com"}}})

	cases := []struct {
		domain string
		wantOK bool
	}{
		{"facebook.com", true},
		{"login.facebook.com", true}, // subdomain
		{"evil.com", false},
		{"notfacebook.com", false},       // suffix trick
		{"facebook.com.evil.com", false}, // prefix trick
	}
	for _, c := range cases {
		err := e.Check(Access{CorID: "fb-pw", Send: true, Domain: c.domain})
		if c.wantOK && err != nil {
			t.Errorf("%s: unexpectedly denied: %v", c.domain, err)
		}
		if !c.wantOK {
			if d, ok := IsDenial(err); !ok || d.Reason != ReasonDomainNotAllowed {
				t.Errorf("%s: err = %v, want domain denial", c.domain, err)
			}
		}
	}
	// Non-send accesses ignore the whitelist.
	if err := e.Check(Access{CorID: "fb-pw", Send: false, Domain: "evil.com"}); err != nil {
		t.Fatalf("non-send access denied: %v", err)
	}
}

func TestNeverSendCor(t *testing.T) {
	// "the private key of bitcoin cannot be sent out" (§3.4).
	_, now := noonClock()
	e := NewEngine(now)
	install(t, e, &Snapshot{Whitelist: map[string][]string{"btc-key": {}}})
	err := e.Check(Access{CorID: "btc-key", Send: true, Domain: "anywhere.com"})
	if d, ok := IsDenial(err); !ok || d.Reason != ReasonNeverSend {
		t.Fatalf("err = %v, want never-send denial", err)
	}
	if err := e.Check(Access{CorID: "btc-key", Send: false}); err != nil {
		t.Fatalf("local use of never-send cor denied: %v", err)
	}
}

func TestAuthEndpointNarrowing(t *testing.T) {
	// The Facebook-comment attack (§3.4): the password may only go to the
	// dedicated authentication machines, not any IP in the domain.
	_, now := noonClock()
	e := NewEngine(now)
	install(t, e, &Snapshot{
		Whitelist: map[string][]string{"fb-pw": {"facebook.com"}},
		AuthIPs:   map[string][]string{"facebook.com": {"31.13.64.1"}},
		AuthOnly:  []string{"fb-pw"},
	})

	if err := e.Check(Access{CorID: "fb-pw", Send: true, Domain: "facebook.com", IP: "31.13.64.1"}); err != nil {
		t.Fatalf("auth endpoint denied: %v", err)
	}
	err := e.Check(Access{CorID: "fb-pw", Send: true, Domain: "facebook.com", IP: "31.13.99.99"})
	if d, ok := IsDenial(err); !ok || d.Reason != ReasonIPNotAuthEndpoint {
		t.Fatalf("comment-page IP: %v", err)
	}

	update(t, e, func(d *Snapshot) { d.AuthOnly = nil })
	if err := e.Check(Access{CorID: "fb-pw", Send: true, Domain: "facebook.com", IP: "31.13.99.99"}); err != nil {
		t.Fatalf("narrowing off but still denied: %v", err)
	}
}

func TestRevocation(t *testing.T) {
	_, now := noonClock()
	e := NewEngine(now)
	update(t, e, func(d *Snapshot) { d.Revoke("stolen-phone") })
	err := e.Check(Access{CorID: "any", DeviceID: "stolen-phone"})
	if d, ok := IsDenial(err); !ok || d.Reason != ReasonRevoked {
		t.Fatalf("err = %v", err)
	}
	if err := e.Check(Access{CorID: "any", DeviceID: "other-phone"}); err != nil {
		t.Fatalf("unrevoked device denied: %v", err)
	}
	update(t, e, func(d *Snapshot) { d.Restore("stolen-phone") })
	if err := e.Check(Access{CorID: "any", DeviceID: "stolen-phone"}); err != nil {
		t.Fatalf("restored device denied: %v", err)
	}
}

func TestTimeWindow(t *testing.T) {
	clock, now := noonClock()
	e := NewEngine(now)
	install(t, e, &Snapshot{Windows: map[string]Window{"cc": {From: 10, To: 22}}})

	if err := e.Check(Access{CorID: "cc"}); err != nil {
		t.Fatalf("noon access denied: %v", err)
	}
	*clock = time.Date(2015, 4, 21, 3, 0, 0, 0, time.UTC)
	err := e.Check(Access{CorID: "cc"})
	if d, ok := IsDenial(err); !ok || d.Reason != ReasonOutsideTimeWindow {
		t.Fatalf("3am access: %v", err)
	}
}

func TestOvernightWindow(t *testing.T) {
	clock, now := noonClock()
	e := NewEngine(now)
	install(t, e, &Snapshot{Windows: map[string]Window{"night": {From: 22, To: 6}}})
	*clock = time.Date(2015, 4, 21, 23, 0, 0, 0, time.UTC)
	if err := e.Check(Access{CorID: "night"}); err != nil {
		t.Fatalf("23:00 denied for overnight window: %v", err)
	}
	*clock = time.Date(2015, 4, 21, 12, 0, 0, 0, time.UTC)
	if err := e.Check(Access{CorID: "night"}); err == nil {
		t.Fatal("noon allowed for overnight window")
	}
	// Degenerate window allows everything.
	update(t, e, func(d *Snapshot) { d.Windows["always"] = Window{From: 5, To: 5} })
	if err := e.Check(Access{CorID: "always"}); err != nil {
		t.Fatalf("degenerate window denied: %v", err)
	}
}

func TestRateLimit(t *testing.T) {
	// "four times per day" (§4.2).
	clock, now := noonClock()
	e := NewEngine(now)
	install(t, e, &Snapshot{Rates: map[string]RateSpec{"cc": {Max: 4, Per: 24 * time.Hour}}})

	for i := 0; i < 4; i++ {
		if err := e.Check(Access{CorID: "cc", Send: true}); err != nil {
			t.Fatalf("access %d denied: %v", i, err)
		}
	}
	err := e.Check(Access{CorID: "cc", Send: true})
	if d, ok := IsDenial(err); !ok || d.Reason != ReasonRateLimited {
		t.Fatalf("fifth access: %v", err)
	}
	// Non-send (offloaded compute) accesses never consume or hit the limit.
	if err := e.Check(Access{CorID: "cc"}); err != nil {
		t.Fatalf("non-send access denied: %v", err)
	}
	// A day later the budget refreshes.
	*clock = clock.Add(25 * time.Hour)
	if err := e.Check(Access{CorID: "cc", Send: true}); err != nil {
		t.Fatalf("post-window access denied: %v", err)
	}
}

func TestDeniedAccessDoesNotConsumeRateBudget(t *testing.T) {
	_, now := noonClock()
	e := NewEngine(now)
	install(t, e, &Snapshot{
		Rates:    map[string]RateSpec{"cc": {Max: 2, Per: time.Hour}},
		Bindings: map[string][]string{"cc": {"good"}},
	})
	// Denied attempts (wrong app) must not burn the budget.
	for i := 0; i < 5; i++ {
		if err := e.Check(Access{CorID: "cc", AppHash: "evil", Send: true}); err == nil {
			t.Fatal("evil app allowed")
		}
	}
	for i := 0; i < 2; i++ {
		if err := e.Check(Access{CorID: "cc", AppHash: "good", Send: true}); err != nil {
			t.Fatalf("good access %d denied: %v", i, err)
		}
	}
}

func TestMalwareCheck(t *testing.T) {
	_, now := noonClock()
	e := NewEngine(now)
	before := e.Stamp()
	e.SetMalwareCheck(func(h string) bool { return h == "bad" })
	// The lookup is code, not data: it publishes no new version.
	if e.Stamp() != before {
		t.Fatalf("malware lookup moved the stamp: %+v -> %+v", before, e.Stamp())
	}
	err := e.Check(Access{CorID: "x", AppHash: "bad"})
	if d, ok := IsDenial(err); !ok || d.Reason != ReasonMalware {
		t.Fatalf("err = %v", err)
	}
	if err := e.Check(Access{CorID: "x", AppHash: "good"}); err != nil {
		t.Fatalf("clean app denied: %v", err)
	}
}

func TestDenialStrings(t *testing.T) {
	for r := ReasonAppNotBound; r <= ReasonNeverSend; r++ {
		d := &Denial{Reason: r, CorID: "c", Detail: "d"}
		if d.Error() == "" || r.String() == "" {
			t.Fatal("empty denial text")
		}
	}
	if Reason(99).String() == "" {
		t.Fatal("unknown reason unnamed")
	}
	if _, ok := IsDenial(nil); ok {
		t.Fatal("nil error is not a denial")
	}
}

func TestDomainMatchProperty(t *testing.T) {
	// Property: a domain never matches a pattern that is not a dot-separated
	// suffix of it.
	prop := func(a, b string) bool {
		if domainMatch(a, b) {
			if a == b {
				return true
			}
			return len(a) > len(b) && a[len(a)-len(b)-1] == '.' && a[len(a)-len(b):] == b
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
