package jsonval

import (
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// SyntaxError describes a parse failure with the byte offset at which it
// was detected.
type SyntaxError struct {
	Offset int
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("jsonval: syntax error at offset %d: %s", e.Offset, e.Msg)
}

// MaxDepth bounds how many containers a document may nest: Parse and
// ParsePrefix recurse once per open container, and without a bound a
// few megabytes of '[' overflow the goroutine stack — a fatal error no
// caller can recover from. The streaming tokenizer defaults to the
// same constant, so every ingest route accepts the same documents.
const MaxDepth = 10000

// Parse parses a JSON document per the paper's restricted grammar:
// objects, arrays, strings and natural numbers. It rejects duplicate
// object keys (the paper's key-uniqueness requirement), negative and
// fractional numbers, and the literals true, false and null, each with a
// descriptive error, as are strings that are not valid UTF-8 and
// nesting deeper than MaxDepth. Trailing non-whitespace input is an
// error.
func Parse(input string) (*Value, error) {
	p := &parser{in: input}
	p.skipSpace()
	v, err := p.value()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.in) {
		return nil, p.errf("unexpected trailing input")
	}
	return v, nil
}

// ParseBytes is Parse over a byte slice.
func ParseBytes(input []byte) (*Value, error) { return Parse(string(input)) }

// ParsePrefix parses a single JSON value at the start of input and
// returns it together with the number of bytes consumed. Unlike Parse it
// permits trailing input, so callers can embed JSON literals inside a
// larger syntax (the JNL and JSON Schema parsers do this).
func ParsePrefix(input string) (*Value, int, error) {
	p := &parser{in: input}
	p.skipSpace()
	v, err := p.value()
	if err != nil {
		return nil, 0, err
	}
	return v, p.pos, nil
}

// MustParse is Parse but panics on error; for tests and examples.
func MustParse(input string) *Value {
	v, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return v
}

type parser struct {
	in    string
	pos   int
	depth int // open containers around pos
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) skipSpace() {
	for p.pos < len(p.in) {
		switch p.in[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *parser) value() (*Value, error) {
	if p.pos >= len(p.in) {
		return nil, p.errf("unexpected end of input, want a value")
	}
	switch c := p.in[p.pos]; {
	case c == '{' || c == '[':
		if p.depth >= MaxDepth {
			return nil, p.errf("nesting depth exceeds %d", MaxDepth)
		}
		p.depth++
		defer func() { p.depth-- }()
		if c == '{' {
			return p.object()
		}
		return p.array()
	case c == '"':
		s, err := p.string()
		if err != nil {
			return nil, err
		}
		return Str(s), nil
	case c >= '0' && c <= '9':
		return p.number()
	case c == '-':
		return nil, p.errf("negative numbers are outside the paper's value model (only naturals)")
	case c == 't' || c == 'f':
		return nil, p.errf("booleans are outside the paper's value model")
	case c == 'n':
		return nil, p.errf("null is outside the paper's value model")
	default:
		return nil, p.errf("unexpected character %q", c)
	}
}

func (p *parser) object() (*Value, error) {
	start := p.pos
	p.pos++ // consume '{'
	p.skipSpace()
	if p.pos < len(p.in) && p.in[p.pos] == '}' {
		p.pos++
		return MustObj(), nil
	}
	var members []Member
	seen := make(map[string]struct{})
	for {
		p.skipSpace()
		if p.pos >= len(p.in) || p.in[p.pos] != '"' {
			return nil, p.errf("want object key string")
		}
		key, err := p.string()
		if err != nil {
			return nil, err
		}
		if _, dup := seen[key]; dup {
			return nil, &SyntaxError{Offset: start, Msg: fmt.Sprintf("duplicate key %q in object", key)}
		}
		seen[key] = struct{}{}
		p.skipSpace()
		if p.pos >= len(p.in) || p.in[p.pos] != ':' {
			return nil, p.errf("want ':' after object key")
		}
		p.pos++
		p.skipSpace()
		v, err := p.value()
		if err != nil {
			return nil, err
		}
		members = append(members, Member{Key: key, Value: v})
		p.skipSpace()
		if p.pos >= len(p.in) {
			return nil, p.errf("unterminated object")
		}
		switch p.in[p.pos] {
		case ',':
			p.pos++
		case '}':
			p.pos++
			obj, err := Obj(members...)
			if err != nil {
				return nil, err
			}
			return obj, nil
		default:
			return nil, p.errf("want ',' or '}' in object, got %q", p.in[p.pos])
		}
	}
}

func (p *parser) array() (*Value, error) {
	p.pos++ // consume '['
	p.skipSpace()
	if p.pos < len(p.in) && p.in[p.pos] == ']' {
		p.pos++
		return Arr(), nil
	}
	var elems []*Value
	for {
		p.skipSpace()
		v, err := p.value()
		if err != nil {
			return nil, err
		}
		elems = append(elems, v)
		p.skipSpace()
		if p.pos >= len(p.in) {
			return nil, p.errf("unterminated array")
		}
		switch p.in[p.pos] {
		case ',':
			p.pos++
		case ']':
			p.pos++
			return Arr(elems...), nil
		default:
			return nil, p.errf("want ',' or ']' in array, got %q", p.in[p.pos])
		}
	}
}

func (p *parser) number() (*Value, error) {
	start := p.pos
	for p.pos < len(p.in) && p.in[p.pos] >= '0' && p.in[p.pos] <= '9' {
		p.pos++
	}
	if p.pos < len(p.in) {
		switch p.in[p.pos] {
		case '.', 'e', 'E':
			return nil, p.errf("fractional and exponent numbers are outside the paper's value model (only naturals)")
		}
	}
	lit := p.in[start:p.pos]
	if len(lit) > 1 && lit[0] == '0' {
		return nil, &SyntaxError{Offset: start, Msg: "leading zeros are not permitted in numbers"}
	}
	n, err := strconv.ParseUint(lit, 10, 64)
	if err != nil {
		return nil, &SyntaxError{Offset: start, Msg: "number out of range: " + lit}
	}
	return Num(n), nil
}

func (p *parser) string() (string, error) {
	p.pos++ // consume opening quote
	start := p.pos
	// Fast path: no escapes, ASCII-printable content.
	for i := p.pos; i < len(p.in); i++ {
		c := p.in[i]
		if c == '"' {
			s := p.in[start:i]
			p.pos = i + 1
			return s, nil
		}
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			break
		}
	}
	var sb []byte
	for p.pos < len(p.in) {
		c := p.in[p.pos]
		switch {
		case c == '"':
			p.pos++
			return string(sb), nil
		case c == '\\':
			p.pos++
			if p.pos >= len(p.in) {
				return "", p.errf("unterminated escape")
			}
			esc := p.in[p.pos]
			p.pos++
			switch esc {
			case '"':
				sb = append(sb, '"')
			case '\\':
				sb = append(sb, '\\')
			case '/':
				sb = append(sb, '/')
			case 'b':
				sb = append(sb, '\b')
			case 'f':
				sb = append(sb, '\f')
			case 'n':
				sb = append(sb, '\n')
			case 'r':
				sb = append(sb, '\r')
			case 't':
				sb = append(sb, '\t')
			case 'u':
				r, err := p.hex4()
				if err != nil {
					return "", err
				}
				if utf16.IsSurrogate(r) {
					// Strict surrogate handling (matching the streaming
					// tokenizer): a high surrogate must be followed by a
					// low one; anything else is rejected rather than
					// replaced.
					if p.pos+1 < len(p.in) && p.in[p.pos] == '\\' && p.in[p.pos+1] == 'u' {
						p.pos += 2
						r2, err := p.hex4()
						if err != nil {
							return "", err
						}
						r = utf16.DecodeRune(r, r2)
						if r == utf8.RuneError {
							return "", p.errf("invalid surrogate pair in \\u escape")
						}
					} else {
						return "", p.errf("unpaired surrogate in \\u escape")
					}
				}
				sb = utf8.AppendRune(sb, r)
			default:
				return "", p.errf("invalid escape \\%c", esc)
			}
		case c < 0x20:
			return "", p.errf("raw control character in string")
		default:
			r, size := utf8.DecodeRuneInString(p.in[p.pos:])
			if r == utf8.RuneError && size <= 1 {
				// Rejected, not replaced (matching the streaming
				// tokenizer): a U+FFFD substitution would make the
				// stored tree differ from its own serialization.
				return "", p.errf("invalid UTF-8 in string")
			}
			sb = append(sb, p.in[p.pos:p.pos+size]...)
			p.pos += size
		}
	}
	return "", p.errf("unterminated string")
}

func (p *parser) hex4() (rune, error) {
	if p.pos+4 > len(p.in) {
		return 0, p.errf("truncated \\u escape")
	}
	var r rune
	for i := 0; i < 4; i++ {
		c := p.in[p.pos+i]
		r <<= 4
		switch {
		case c >= '0' && c <= '9':
			r |= rune(c - '0')
		case c >= 'a' && c <= 'f':
			r |= rune(c-'a') + 10
		case c >= 'A' && c <= 'F':
			r |= rune(c-'A') + 10
		default:
			return 0, p.errf("invalid hex digit %q in \\u escape", c)
		}
	}
	p.pos += 4
	return r, nil
}
