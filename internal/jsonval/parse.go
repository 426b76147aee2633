package jsonval

import (
	"fmt"
	"math"
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
	p := &parser{Lexer: Lexer[string]{In: input}}
	p.SkipSpace()
	v, err := p.value()
	if err != nil {
		return nil, err
	}
	p.SkipSpace()
	if p.Pos != len(p.In) {
		return nil, p.Errorf("unexpected trailing input")
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
	p := &parser{Lexer: Lexer[string]{In: input}}
	p.SkipSpace()
	v, err := p.value()
	if err != nil {
		return nil, 0, err
	}
	return v, p.Pos, nil
}

// MustParse is Parse but panics on error; for tests and examples.
func MustParse(input string) *Value {
	v, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return v
}

// parser is the Value-building grammar over the shared Lexer.
type parser struct {
	Lexer[string]
	depth int // open containers around Pos
}

func (p *parser) value() (*Value, error) {
	if p.Pos >= len(p.In) {
		return nil, p.ValueError()
	}
	switch c := p.In[p.Pos]; {
	case c == '{' || c == '[':
		if p.depth >= MaxDepth {
			return nil, p.Errorf("nesting depth exceeds %d", MaxDepth)
		}
		p.depth++
		defer func() { p.depth-- }()
		if c == '{' {
			return p.object()
		}
		return p.array()
	case c == '"':
		s, err := p.ScanString()
		if err != nil {
			return nil, err
		}
		return Str(s), nil
	case c >= '0' && c <= '9':
		n, err := p.ScanNumber()
		if err != nil {
			return nil, err
		}
		return Num(n), nil
	default:
		return nil, p.ValueError()
	}
}

func (p *parser) object() (*Value, error) {
	start := p.Pos
	if p.Open() {
		return MustObj(), nil
	}
	var members []Member
	seen := make(map[string]struct{})
	for {
		key, err := p.ObjectKey()
		if err != nil {
			return nil, err
		}
		if _, dup := seen[key]; dup {
			return nil, DuplicateKeyError(start, key)
		}
		seen[key] = struct{}{}
		v, err := p.value()
		if err != nil {
			return nil, err
		}
		members = append(members, Member{Key: key, Value: v})
		more, err := p.More('}')
		if err != nil {
			return nil, err
		}
		if !more {
			return Obj(members...)
		}
	}
}

func (p *parser) array() (*Value, error) {
	if p.Open() {
		return Arr(), nil
	}
	var elems []*Value
	for {
		v, err := p.value()
		if err != nil {
			return nil, err
		}
		elems = append(elems, v)
		more, err := p.More(']')
		if err != nil {
			return nil, err
		}
		if !more {
			return Arr(elems...), nil
		}
	}
}

// Lexer is the token level of the document language: whitespace,
// strings, numbers and the punctuation around members and elements,
// with the language's rules — strict UTF-8, the escape and
// surrogate-pair rules, no leading zeros, the uint64 range, no
// negative or fractional numbers — and their errors. It is the one
// implementation of those rules, and it scans whatever its caller
// holds: Parse and jsontree.Parse drive a Lexer[string] over text;
// jsontree's PathFact.HoldsJSON drives a Lexer[[]byte] over a stored
// document's bytes, and the streaming tokenizer (internal/stream) one
// over each string or number literal it reads. Each driver holds only
// its own structure and build step, so none can drift from the others.
type Lexer[T ~string | ~[]byte] struct {
	In  T      // the input
	Pos int    // byte offset of the next unread byte
	buf []byte // decoding scratch for strings with escapes
}

// maxScratch bounds the decoding buffer a Lexer keeps across Reset.
const maxScratch = 64 << 10

// Reset points the Lexer at the start of in. The decoding buffer is
// kept for reuse unless a long escaped string grew it past maxScratch,
// so a pooled Lexer does not pin one large document's worth of memory.
func (l *Lexer[T]) Reset(in T) {
	l.In, l.Pos = in, 0
	if cap(l.buf) > maxScratch {
		l.buf = nil
	}
}

// Errorf returns a *SyntaxError at the current offset.
func (l *Lexer[T]) Errorf(format string, args ...any) error {
	return &SyntaxError{Offset: l.Pos, Msg: fmt.Sprintf(format, args...)}
}

// DuplicateKeyError is the error for an object, starting at offset,
// that repeats key — the paper's key-uniqueness requirement.
func DuplicateKeyError(offset int, key string) error {
	return &SyntaxError{Offset: offset, Msg: fmt.Sprintf("duplicate key %q in object", key)}
}

// SkipSpace advances past JSON whitespace (space, tab, CR, LF).
func (l *Lexer[T]) SkipSpace() {
	for l.Pos < len(l.In) {
		switch l.In[l.Pos] {
		case ' ', '\t', '\n', '\r':
			l.Pos++
		default:
			return
		}
	}
}

// Open consumes the '{' or '[' at the current offset and the space
// after it, and reports whether the container is empty, consuming its
// closing byte too if so. Otherwise a member or element starts at the
// new offset.
func (l *Lexer[T]) Open() (empty bool) {
	closer := byte(']')
	if l.In[l.Pos] == '{' {
		closer = '}'
	}
	l.Pos++
	l.SkipSpace()
	if l.Pos < len(l.In) && l.In[l.Pos] == closer {
		l.Pos++
		return true
	}
	return false
}

// ObjectKey scans an object member's `"key" :` and the space after
// it, so the member's value starts at the new offset. The key is as
// ScanString returns it.
func (l *Lexer[T]) ObjectKey() (T, error) {
	var key T
	l.SkipSpace()
	if l.Pos >= len(l.In) || l.In[l.Pos] != '"' {
		return key, l.Errorf("want object key string")
	}
	key, err := l.ScanString()
	if err != nil {
		return key, err
	}
	l.SkipSpace()
	if l.Pos >= len(l.In) || l.In[l.Pos] != ':' {
		return key, l.Errorf("want ':' after object key")
	}
	l.Pos++
	l.SkipSpace()
	return key, nil
}

// More scans what follows a member or element of the container that
// closer ('}' or ']') ends: a ',' and the space after it, reporting
// more, or closer itself, reporting the container closed.
func (l *Lexer[T]) More(closer byte) (more bool, err error) {
	what := "array"
	if closer == '}' {
		what = "object"
	}
	l.SkipSpace()
	if l.Pos >= len(l.In) {
		return false, l.Errorf("unterminated %s", what)
	}
	switch c := l.In[l.Pos]; c {
	case ',':
		l.Pos++
		l.SkipSpace()
		return true, nil
	case closer:
		l.Pos++
		return false, nil
	default:
		return false, l.Errorf("want ',' or '%c' in %s, got %q", closer, what, c)
	}
}

// ValueError explains why no value starts at the current offset: the
// input ended, or its byte starts a negative number, a boolean, null
// or nothing the language has. Parsers call it for any byte that is
// not '{', '[', '"' or a digit.
func (l *Lexer[T]) ValueError() error {
	if l.Pos >= len(l.In) {
		return l.Errorf("unexpected end of input, want a value")
	}
	switch c := l.In[l.Pos]; c {
	case '-':
		return l.Errorf("negative numbers are outside the paper's value model (only naturals)")
	case 't', 'f':
		return l.Errorf("booleans are outside the paper's value model")
	case 'n':
		return l.Errorf("null is outside the paper's value model")
	default:
		return l.Errorf("unexpected character %q", c)
	}
}

// ScanNumber scans the natural number starting at the current offset,
// which must be a digit. It fails as soon as the digits read so far
// decide it — a second digit after a leading zero, or one that takes
// the value past 2^64-1 — so a digit run of any length is rejected on
// its first 21 digits; otherwise it reads no byte past the digits and
// the one after them.
func (l *Lexer[T]) ScanNumber() (uint64, error) {
	start := l.Pos
	var n uint64
	for ; l.Pos < len(l.In) && l.In[l.Pos] >= '0' && l.In[l.Pos] <= '9'; l.Pos++ {
		if n == 0 && l.Pos > start {
			return 0, &SyntaxError{Offset: start, Msg: "leading zeros are not permitted in numbers"}
		}
		d := uint64(l.In[l.Pos] - '0')
		if n > (math.MaxUint64-d)/10 {
			return 0, &SyntaxError{Offset: start, Msg: "number out of range (naturals are at most 2^64-1)"}
		}
		n = n*10 + d
	}
	if l.Pos < len(l.In) {
		switch l.In[l.Pos] {
		case '.', 'e', 'E':
			return 0, l.Errorf("fractional and exponent numbers are outside the paper's value model (only naturals)")
		}
	}
	return n, nil
}

// ScanString scans the string literal whose opening quote is at the
// current offset and returns its decoded contents. A string without
// escapes is returned as a slice of In, sharing its memory. One with
// escapes is decoded into the Lexer's scratch: as a string that is a
// copy, as a []byte a view of the scratch, valid until the next scan.
// No byte past the closing quote changes the outcome, so a caller may
// hand it exactly one literal.
func (l *Lexer[T]) ScanString() (T, error) {
	var zero T
	l.Pos++ // the opening quote
	start, mark := l.Pos, l.Pos
	sb := l.buf[:0]
	escaped := false
	for l.Pos < len(l.In) {
		switch c := l.In[l.Pos]; {
		case c == '"':
			l.Pos++
			if !escaped {
				return l.In[start : l.Pos-1], nil
			}
			l.buf = append(sb, l.In[mark:l.Pos-1]...)
			return T(l.buf), nil
		case c == '\\':
			sb = append(sb, l.In[mark:l.Pos]...)
			escaped = true
			l.Pos++
			if l.Pos >= len(l.In) {
				return zero, l.Errorf("unterminated escape")
			}
			esc := l.In[l.Pos]
			l.Pos++
			switch esc {
			case '"', '\\', '/':
				sb = append(sb, esc)
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
				r, err := l.hex4()
				if err != nil {
					return zero, err
				}
				if utf16.IsSurrogate(r) {
					// Strict surrogate handling: a high surrogate must be
					// followed by a low one; anything else is rejected
					// rather than replaced.
					if l.Pos+1 >= len(l.In) || l.In[l.Pos] != '\\' || l.In[l.Pos+1] != 'u' {
						return zero, l.Errorf("unpaired surrogate in \\u escape")
					}
					l.Pos += 2
					r2, err := l.hex4()
					if err != nil {
						return zero, err
					}
					if r = utf16.DecodeRune(r, r2); r == utf8.RuneError {
						return zero, l.Errorf("invalid surrogate pair in \\u escape")
					}
				}
				sb = utf8.AppendRune(sb, r)
			default:
				return zero, l.Errorf("invalid escape \\%c", esc)
			}
			mark = l.Pos
		case c < 0x20:
			return zero, l.Errorf("raw control character in string")
		case c < utf8.RuneSelf:
			l.Pos++
		default:
			// Rejected, not replaced: a U+FFFD substitution would make
			// the stored tree differ from its own serialization. At most
			// UTFMax bytes are converted, so a []byte input does not
			// copy.
			end := min(l.Pos+utf8.UTFMax, len(l.In))
			r, size := utf8.DecodeRuneInString(string(l.In[l.Pos:end]))
			if r == utf8.RuneError && size <= 1 {
				return zero, l.Errorf("invalid UTF-8 in string")
			}
			l.Pos += size
		}
	}
	return zero, l.Errorf("unterminated string")
}

// hex4 decodes the four hex digits of a \u escape. A non-hex byte is
// reported before a short input, so a literal cut at its closing quote
// fails as the whole document does.
func (l *Lexer[T]) hex4() (rune, error) {
	var r rune
	for i := 0; i < 4; i++ {
		if l.Pos+i >= len(l.In) {
			return 0, l.Errorf("truncated \\u escape")
		}
		c := l.In[l.Pos+i]
		r <<= 4
		switch {
		case c >= '0' && c <= '9':
			r |= rune(c - '0')
		case c >= 'a' && c <= 'f':
			r |= rune(c-'a') + 10
		case c >= 'A' && c <= 'F':
			r |= rune(c-'A') + 10
		default:
			return 0, l.Errorf("invalid hex digit %q in \\u escape", c)
		}
	}
	l.Pos += 4
	return r, nil
}
