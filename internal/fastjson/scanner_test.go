package fastjson

import "testing"

// The Scanner's contract is fail-fast: ok=false means "fall back to the
// full decoder", never a wrong answer. These cases pin the edges where a
// sloppy tokenizer would instead return corrupt data.

func TestScannerStrEscapes(t *testing.T) {
	cases := []struct {
		in   string
		ok   bool
		want string
	}{
		{`"plain"`, true, "plain"},
		{`""`, true, ""},
		{`"with space"`, true, "with space"},
		// Any escape must punt to the full decoder, not half-decode.
		{`"esc\"aped"`, false, ""},
		{`"tab\there"`, false, ""},
		{`"\u0041BC"`, false, ""}, // unicode escape punts too
		{`"\\"`, false, ""},
		// Raw control bytes are invalid JSON inside a string.
		{"\"a\x00b\"", false, ""},
		{"\"a\nb\"", false, ""},
		// Unterminated.
		{`"open`, false, ""},
		{`notastring`, false, ""},
	}
	for _, c := range cases {
		s := &Scanner{Data: []byte(c.in)}
		got, ok := s.Str()
		if ok != c.ok || got != c.want {
			t.Errorf("Str(%q) = (%q, %v), want (%q, %v)", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestScannerSkipValueEdges(t *testing.T) {
	// in is followed by a comma so the test can verify the cursor lands
	// exactly on the first byte after the skipped value.
	cases := []struct {
		in string
		ok bool
	}{
		{`{}`, true},
		{`[]`, true},
		{`[[]]`, true},
		{`{"a":{}}`, true},
		{`[{},[],{"x":[]}]`, true},
		// Escaped quotes and brackets inside strings must not confuse the
		// depth tracking.
		{`{"k":"va\"l}ue"}`, true},
		{`["br]acket","}"]`, true},
		{`"esc\"aped"`, true},
		{`null`, true},
		{`-12.5e3`, true},
		// Truncated input fails rather than over-running.
		{`{"a":`, false},
		{`["x"`, false},
		{`"unterminated`, false},
		{``, false},
		{`"\u00e9\/"`, true},
		{`0`, true},
		{`-0.5E+2`, true},
		// Malformed values fail: the full decoder would reject them.
		{`{abc}`, false},
		{`{"a"}`, false},
		{`{"a":1,}`, false},
		{`[1,]`, false},
		{`[1 2]`, false},
		{`tru`, false},
		{`nul`, false},
		{`"\x"`, false},
		{`"\u12"`, false},
		{"\"tab\there\"", false},
		{`-`, false},
		{`1.`, false},
		{`1e`, false},
		{`.5`, false},
	}
	for _, c := range cases {
		s := &Scanner{Data: []byte(c.in + ",")}
		ok := s.SkipValue()
		if ok != c.ok {
			t.Errorf("SkipValue(%q) ok = %v, want %v", c.in, ok, c.ok)
			continue
		}
		if ok && s.Data[s.Pos] != ',' {
			t.Errorf("SkipValue(%q) stopped at %d (%q), want the trailing comma", c.in, s.Pos, s.Data[s.Pos:])
		}
	}
}

func TestScannerSkipStringTrailingBackslash(t *testing.T) {
	// A backslash as the final byte skips "two" bytes past the end; the
	// scanner must report failure, not panic or claim success.
	for _, in := range []string{`"abc\`, `"\`, `"a\"`} {
		s := &Scanner{Data: []byte(in)}
		if s.SkipValue() {
			t.Errorf("SkipValue(%q) = true, want false (unterminated escape)", in)
		}
	}
}

func TestScannerNumberEdges(t *testing.T) {
	uints := []struct {
		in string
		ok bool
		n  uint64
	}{
		{"0", true, 0},
		{" 42", true, 42},
		{"18446744073709551609", true, 18446744073709551609},
		// The overflow guard is conservative: it punts on the last few
		// representable values rather than risk wrapping, per the
		// fall-back contract.
		{"18446744073709551615", false, 0},
		{"18446744073709551616", false, 0}, // overflow
		{"1.5", false, 0},
		{"1e3", false, 0},
		{"", false, 0},
		{"-1", false, 0},
		{"01", false, 0}, // leading zeros are not JSON
	}
	for _, c := range uints {
		s := &Scanner{Data: []byte(c.in)}
		n, ok := s.UInt()
		if ok != c.ok || n != c.n {
			t.Errorf("UInt(%q) = (%d, %v), want (%d, %v)", c.in, n, ok, c.n, c.ok)
		}
	}
	ints := []struct {
		in string
		ok bool
		n  int
	}{
		{"-7", true, -7},
		{"7", true, 7},
		{"-0", true, 0},
		{"--1", false, 0},
		{"- 1", false, 0},
		{"-01", false, 0},
		{"-1.5", false, 0},
		{"9223372036854775807", false, 0}, // beyond the 1<<62 fast-path cap
	}
	for _, c := range ints {
		s := &Scanner{Data: []byte(c.in)}
		n, ok := s.Int()
		if ok != c.ok || n != c.n {
			t.Errorf("Int(%q) = (%d, %v), want (%d, %v)", c.in, n, ok, c.n, c.ok)
		}
	}
}
