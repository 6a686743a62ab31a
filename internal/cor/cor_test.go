package cor

import (
	"strings"
	"testing"
	"testing/quick"

	"tinman/internal/taint"
)

func TestRegisterBasics(t *testing.T) {
	s := NewStore()
	r, err := s.Register("citi-pw", "hunter2!", "My Citi password")
	if err != nil {
		t.Fatal(err)
	}
	if r.Bit != 0 || r.Tag() != taint.Bit(0) {
		t.Fatalf("bit = %d", r.Bit)
	}
	if len(r.Placeholder) != len("hunter2!") {
		t.Fatalf("placeholder length %d != plaintext length %d", len(r.Placeholder), len("hunter2!"))
	}
	if r.Placeholder == r.Plaintext {
		t.Fatal("placeholder equals plaintext")
	}
	if got := s.Get("citi-pw"); got != r {
		t.Fatal("Get failed")
	}
	if got := s.ByBit(0); got != r {
		t.Fatal("ByBit failed")
	}
}

func TestRegisterErrors(t *testing.T) {
	s := NewStore()
	if _, err := s.Register("", "x", ""); err == nil {
		t.Fatal("empty ID accepted")
	}
	if _, err := s.Register("a", "", ""); err == nil {
		t.Fatal("empty plaintext accepted")
	}
	if _, err := s.Register("a", "x", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("a", "y", ""); err == nil {
		t.Fatal("duplicate ID accepted")
	}
}

func TestBitExhaustion(t *testing.T) {
	s := NewStore()
	for i := 0; i < 64; i++ {
		if _, err := s.Register(strings.Repeat("x", i+1), "pw", ""); err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
	}
	if _, err := s.Register("overflow", "pw", ""); err == nil {
		t.Fatal("expected taint-bit exhaustion error")
	}
}

func TestByTag(t *testing.T) {
	s := NewStore()
	a, _ := s.Register("a", "pw1", "")
	b, _ := s.Register("b", "pw2", "")
	got := s.ByTag(a.Tag().Union(b.Tag()))
	if len(got) != 2 {
		t.Fatalf("ByTag returned %d records", len(got))
	}
	if got := s.ByTag(taint.None); len(got) != 0 {
		t.Fatalf("ByTag(None) returned %d", len(got))
	}
}

func TestDeriveInheritsBitAndClass(t *testing.T) {
	s := NewStore()
	parent, _ := s.Register("bank-pw", "secret99", "")
	if err := s.SetClass("bank-pw", ClassServerOnly); err != nil {
		t.Fatal(err)
	}
	d, err := s.Derive("bank-pw", "bank-pw-hash", "deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	if d.Bit != parent.Bit {
		t.Fatal("derived cor must share the parent's taint bit")
	}
	if d.Class != ClassServerOnly {
		t.Fatalf("derived class = %q, want the parent's %q", d.Class, ClassServerOnly)
	}
	if _, err := s.Derive("nope", "x", "y"); err == nil {
		t.Fatal("derive from unknown parent accepted")
	}
	if _, err := s.Derive("bank-pw", "bank-pw-hash", "z"); err == nil {
		t.Fatal("duplicate derived ID accepted")
	}
}

func TestDeviceViewsExcludePlaintext(t *testing.T) {
	s := NewStore()
	s.Register("a", "topsecret", "desc-a")
	s.Register("b", "alsosecret", "desc-b")
	views := s.DeviceViews()
	if len(views) != 2 {
		t.Fatalf("views = %d", len(views))
	}
	for _, v := range views {
		if v.Placeholder == "" || v.ID == "" {
			t.Fatalf("incomplete view %+v", v)
		}
		if strings.Contains(v.Placeholder, "secret") {
			t.Fatal("placeholder leaks plaintext")
		}
	}
	// Views are sorted by ID.
	if views[0].ID != "a" || views[1].ID != "b" {
		t.Fatalf("views unsorted: %v", views)
	}
}

func TestListAndLen(t *testing.T) {
	s := NewStore()
	if s.Len() != 0 {
		t.Fatal("new store not empty")
	}
	s.Register("z", "1", "")
	s.Register("a", "2", "")
	l := s.List()
	if s.Len() != 2 || len(l) != 2 || l[0].ID != "a" {
		t.Fatalf("list = %v", l)
	}
}

func TestByBitOutOfRange(t *testing.T) {
	s := NewStore()
	if s.ByBit(-1) != nil || s.ByBit(64) != nil {
		t.Fatal("out-of-range bit should return nil")
	}
}

// Properties: the placeholder always matches the plaintext length, differs
// from it, and is deterministic per (id, length) — both endpoints compute
// the same dummy bytes without sharing secrets.
func TestPlaceholderProperties(t *testing.T) {
	prop := func(idSeed uint32, n uint8) bool {
		id := "cor-" + string(rune('a'+idSeed%26))
		length := int(n%64) + 1
		p1 := makePlaceholder(id, length)
		p2 := makePlaceholder(id, length)
		return len(p1) == length && p1 == p2
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceholderLongerThanMarker(t *testing.T) {
	p := makePlaceholder("x", 200)
	if len(p) != 200 {
		t.Fatalf("len = %d", len(p))
	}
	if !strings.HasPrefix(p, "TINMAN-PLACEHOLDER-") {
		t.Fatal("long placeholder should start with the marker")
	}
}
