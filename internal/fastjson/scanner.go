package fastjson

import "unicode/utf8"

// Scanner is a minimal JSON tokenizer for schema-specialized decoders.
// The contract is fail-fast rather than feature-complete: every method
// that returns ok=false means "this input needs the full decoder" — a
// caller is expected to discard partial results and fall back to
// Unmarshal. That keeps the fast path tiny (no escape decoding, no
// float parsing) while staying correct on arbitrary input.
type Scanner struct {
	Data []byte
	Pos  int
}

// WS advances past insignificant whitespace.
func (s *Scanner) WS() {
	for s.Pos < len(s.Data) {
		switch s.Data[s.Pos] {
		case ' ', '\t', '\r', '\n':
			s.Pos++
		default:
			return
		}
	}
}

// Consume reports whether the next non-space byte is c, advancing past it
// when it is.
func (s *Scanner) Consume(c byte) bool {
	s.WS()
	if s.Pos < len(s.Data) && s.Data[s.Pos] == c {
		s.Pos++
		return true
	}
	return false
}

// StrBytes parses a JSON string and returns its contents as a slice of
// the underlying buffer — the caller must copy before the buffer is
// reused. ok is false for strings that use escapes (they need the full
// decoder to unquote), hold invalid UTF-8 (which the full decoder
// replaces with U+FFFD) or are malformed.
func (s *Scanner) StrBytes() ([]byte, bool) {
	if !s.Consume('"') {
		return nil, false
	}
	start := s.Pos
	ascii := true
	for s.Pos < len(s.Data) {
		switch c := s.Data[s.Pos]; {
		case c == '"':
			b := s.Data[start:s.Pos]
			s.Pos++
			if !ascii && !utf8.Valid(b) {
				return nil, false
			}
			return b, true
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
		s.Pos++
	}
	return nil, false
}

// Str is StrBytes with the copy made.
func (s *Scanner) Str() (string, bool) {
	b, ok := s.StrBytes()
	return string(b), ok
}

// UInt parses a non-negative integer. ok is false on overflow, leading
// zeros or float/exponent forms.
func (s *Scanner) UInt() (uint64, bool) {
	s.WS()
	return s.digits()
}

// digits parses the digits of a JSON integer at the cursor, with no
// leading whitespace.
func (s *Scanner) digits() (uint64, bool) {
	start := s.Pos
	var n uint64
	for s.Pos < len(s.Data) {
		c := s.Data[s.Pos]
		if c < '0' || c > '9' {
			break
		}
		if n > (1<<64-1-9)/10 {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
		s.Pos++
	}
	if s.Pos == start || (s.Data[start] == '0' && s.Pos-start > 1) {
		return 0, false
	}
	if s.Pos < len(s.Data) {
		switch s.Data[s.Pos] {
		case '.', 'e', 'E':
			return 0, false
		}
	}
	return n, true
}

// Int parses a (possibly negative) integer.
func (s *Scanner) Int() (int, bool) {
	s.WS()
	neg := false
	if s.Pos < len(s.Data) && s.Data[s.Pos] == '-' {
		neg = true
		s.Pos++
	}
	n, ok := s.digits()
	if !ok || n > 1<<62 {
		return 0, false
	}
	if neg {
		return -int(n), true
	}
	return int(n), true
}

// Bool parses true or false.
func (s *Scanner) Bool() (bool, bool) {
	if s.Lit("true") {
		return true, true
	}
	if s.Lit("false") {
		return false, true
	}
	return false, false
}

// Lit reports whether the next token is exactly lit, advancing past it.
func (s *Scanner) Lit(lit string) bool {
	s.WS()
	if len(s.Data)-s.Pos < len(lit) || string(s.Data[s.Pos:s.Pos+len(lit)]) != lit {
		return false
	}
	s.Pos += len(lit)
	return true
}

// maxSkipDepth bounds the nesting SkipValue follows. Deeper values go to
// the full decoder, which enforces encoding/json's own nesting limit.
const maxSkipDepth = 1000

// SkipValue advances past one JSON value of any shape (used to capture
// raw sub-messages). Unlike the typed methods it handles escapes and
// nesting, because it never interprets the bytes, but it does check the
// grammar: ok is false on malformed JSON, so a raw capture never accepts
// a value the full decoder would reject.
func (s *Scanner) SkipValue() bool { return s.skipValue(0) }

func (s *Scanner) skipValue(depth int) bool {
	s.WS()
	if s.Pos >= len(s.Data) {
		return false
	}
	switch c := s.Data[s.Pos]; {
	case c == '"':
		return s.skipString()
	case c == '{':
		if depth >= maxSkipDepth {
			return false
		}
		s.Pos++
		if s.Consume('}') {
			return true
		}
		for {
			s.WS()
			if s.Pos >= len(s.Data) || s.Data[s.Pos] != '"' || !s.skipString() ||
				!s.Consume(':') || !s.skipValue(depth+1) {
				return false
			}
			if !s.Consume(',') {
				return s.Consume('}')
			}
		}
	case c == '[':
		if depth >= maxSkipDepth {
			return false
		}
		s.Pos++
		if s.Consume(']') {
			return true
		}
		for {
			if !s.skipValue(depth + 1) {
				return false
			}
			if !s.Consume(',') {
				return s.Consume(']')
			}
		}
	case c == '-' || ('0' <= c && c <= '9'):
		return s.skipNumber()
	default:
		return s.Lit("true") || s.Lit("false") || s.Lit("null")
	}
}

// RawValue returns the next JSON value's bytes as a slice of the
// underlying buffer, for json.RawMessage fields; ok as for SkipValue.
func (s *Scanner) RawValue() ([]byte, bool) {
	s.WS()
	start := s.Pos
	if !s.SkipValue() {
		return nil, false
	}
	return s.Data[start:s.Pos], true
}

// skipString advances past a string token, checking its escapes; the
// cursor must be on the opening quote. Like encoding/json's validity
// check it does not check UTF-8: raw captures keep the bytes verbatim.
func (s *Scanner) skipString() bool {
	s.Pos++
	for s.Pos < len(s.Data) {
		switch c := s.Data[s.Pos]; {
		case c == '"':
			s.Pos++
			return true
		case c < 0x20:
			return false
		case c == '\\':
			s.Pos++
			if s.Pos >= len(s.Data) {
				return false
			}
			switch s.Data[s.Pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(s.Data)-s.Pos <= 4 {
					return false
				}
				for _, h := range s.Data[s.Pos+1 : s.Pos+5] {
					if !isHex(h) {
						return false
					}
				}
				s.Pos += 4
			default:
				return false
			}
		}
		s.Pos++
	}
	return false
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// skipNumber advances past a JSON number: -?(0|[1-9][0-9]*)(.[0-9]+)?
// ([eE][+-]?[0-9]+)?.
func (s *Scanner) skipNumber() bool {
	if s.Data[s.Pos] == '-' {
		s.Pos++
	}
	switch {
	case s.Pos < len(s.Data) && s.Data[s.Pos] == '0':
		s.Pos++
	case !s.skipDigits():
		return false
	}
	if s.Pos < len(s.Data) && s.Data[s.Pos] == '.' {
		s.Pos++
		if !s.skipDigits() {
			return false
		}
	}
	if s.Pos < len(s.Data) && (s.Data[s.Pos] == 'e' || s.Data[s.Pos] == 'E') {
		s.Pos++
		if s.Pos < len(s.Data) && (s.Data[s.Pos] == '+' || s.Data[s.Pos] == '-') {
			s.Pos++
		}
		if !s.skipDigits() {
			return false
		}
	}
	return true
}

// skipDigits advances past one or more decimal digits.
func (s *Scanner) skipDigits() bool {
	start := s.Pos
	for s.Pos < len(s.Data) && '0' <= s.Data[s.Pos] && s.Data[s.Pos] <= '9' {
		s.Pos++
	}
	return s.Pos > start
}

// End reports whether only whitespace remains.
func (s *Scanner) End() bool {
	s.WS()
	return s.Pos == len(s.Data)
}
