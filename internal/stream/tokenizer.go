// Package stream implements the streaming perspective of §6: a
// pull-based JSON tokenizer and a validator that decides (recursive)
// JSL formulas over a document stream without materialising the tree.
//
// The paper conjectures that the deterministic fragments of JNL and JSL
// can be evaluated in a streaming context with constant memory once
// tree equality is excluded. The validator realises a slightly stronger
// statement: any recursive JSL expression without the Unique predicate
// is decided with memory proportional to the open-nesting depth times
// the formula size — independent of the document's width and total
// size. Unique is rejected at construction time, since deciding it
// requires remembering entire sibling subtrees. Comparisons with
// constant documents (the ~(A) node test) are supported exactly, with
// match state bounded by the constants' sizes.
package stream

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"jsonlogic/internal/jsonval"
)

// TokenKind discriminates stream tokens.
type TokenKind uint8

// Token kinds produced by the Tokenizer.
const (
	// BeginObject is '{'.
	BeginObject TokenKind = iota
	// EndObject is '}'.
	EndObject
	// BeginArray is '['.
	BeginArray
	// EndArray is ']'.
	EndArray
	// KeyTok is an object key; Str holds the decoded key.
	KeyTok
	// StringTok is a string value; Str holds the decoded string.
	StringTok
	// NumberTok is a natural-number value; Num holds the value.
	NumberTok
)

func (k TokenKind) String() string {
	switch k {
	case BeginObject:
		return "BeginObject"
	case EndObject:
		return "EndObject"
	case BeginArray:
		return "BeginArray"
	case EndArray:
		return "EndArray"
	case KeyTok:
		return "Key"
	case StringTok:
		return "String"
	case NumberTok:
		return "Number"
	default:
		return fmt.Sprintf("TokenKind(%d)", k)
	}
}

// Token is one event of the document stream.
type Token struct {
	Kind   TokenKind
	Str    string // key or string value
	Num    uint64 // number value
	Offset int64  // byte offset of the token's first character
}

// SyntaxError reports malformed input with its byte offset.
type SyntaxError struct {
	Offset int64
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("stream: syntax error at offset %d: %s", e.Offset, e.Msg)
}

// TokenizerOptions configure a Tokenizer. The zero value is the
// default configuration.
type TokenizerOptions struct {
	// AllowDuplicateKeys disables the per-object duplicate-key check.
	// The check requires remembering the keys of every open object
	// (memory proportional to the open ancestors' fanout); disabling it
	// makes tokenization memory proportional to the nesting depth only.
	AllowDuplicateKeys bool
	// MaxDepth bounds the nesting depth (0 means jsonval.MaxDepth, the
	// bound the recursive parser enforces).
	MaxDepth int
}

// Tokenizer reads one JSON document from an io.Reader as a stream of
// tokens. It enforces the grammar of §2 (objects, arrays, strings,
// natural numbers) including the pairwise-distinct-keys requirement,
// using memory proportional to the open-nesting depth.
type Tokenizer struct {
	r      *bufio.Reader
	offset int64
	opts   TokenizerOptions

	// stack holds one entry per open container.
	stack []frame
	// done reports that the top-level value has been fully read.
	done bool
	// expectValue: inside an array after '[' or ',', or inside an
	// object after a key's ':'; at top level before the first token.
	expectValue bool

	strBuf strings.Builder
}

type frame struct {
	isObject bool
	count    int             // children emitted so far
	keys     map[string]bool // object keys seen (nil when duplicates allowed)
}

// NewTokenizer returns a Tokenizer reading from rd.
func NewTokenizer(rd io.Reader) *Tokenizer {
	return NewTokenizerOptions(rd, TokenizerOptions{})
}

// NewTokenizerOptions returns a Tokenizer with explicit options.
func NewTokenizerOptions(rd io.Reader, opts TokenizerOptions) *Tokenizer {
	if opts.MaxDepth == 0 {
		opts.MaxDepth = jsonval.MaxDepth
	}
	return &Tokenizer{r: bufio.NewReader(rd), opts: opts, expectValue: true}
}

// Depth returns the current nesting depth (number of open containers).
func (t *Tokenizer) Depth() int { return len(t.stack) }

func (t *Tokenizer) errf(format string, args ...any) error {
	return &SyntaxError{Offset: t.offset, Msg: fmt.Sprintf(format, args...)}
}

// eofErrf maps a read failure to the right owner: io.EOF means the
// document itself is truncated (a syntax error with the given
// message); any other error is the reader's own failure and
// propagates unchanged, so callers can still identify it with
// errors.Is/As — the daemon relies on this to tell an oversized body
// (*http.MaxBytesError → 413) from malformed JSON (400).
func (t *Tokenizer) eofErrf(err error, format string, args ...any) error {
	if err == io.EOF {
		return t.errf(format, args...)
	}
	return err
}

func (t *Tokenizer) readByte() (byte, error) {
	b, err := t.r.ReadByte()
	if err == nil {
		t.offset++
	}
	return b, err
}

func (t *Tokenizer) unreadByte() {
	_ = t.r.UnreadByte()
	t.offset--
}

func (t *Tokenizer) skipSpace() error {
	for {
		b, err := t.readByte()
		if err != nil {
			return err
		}
		if b != ' ' && b != '\t' && b != '\n' && b != '\r' {
			t.unreadByte()
			return nil
		}
	}
}

// Next returns the next token. After the final token of a well-formed
// document it returns io.EOF; any other error is a *SyntaxError or an
// error from the underlying reader.
func (t *Tokenizer) Next() (Token, error) {
	if t.done && len(t.stack) == 0 {
		// Check only trailing whitespace remains, once.
		if err := t.skipSpace(); err == nil {
			return Token{}, t.errf("trailing input after top-level value")
		} else if err != io.EOF {
			return Token{}, err
		}
		return Token{}, io.EOF
	}
	if err := t.skipSpace(); err != nil {
		if err == io.EOF {
			return Token{}, t.errf("unexpected end of input")
		}
		return Token{}, err
	}
	b, err := t.readByte()
	if err != nil {
		return Token{}, err
	}
	start := t.offset - 1

	// Structural punctuation between values.
	if !t.expectValue {
		top := &t.stack[len(t.stack)-1]
		switch {
		case b == ',':
			if top.count == 0 {
				return Token{}, t.errf("unexpected ',' before first element")
			}
			if top.isObject {
				return t.key(top)
			}
			t.expectValue = true
			return t.Next()
		case b == '}' && top.isObject:
			t.pop()
			return Token{Kind: EndObject, Offset: start}, nil
		case b == ']' && !top.isObject:
			t.pop()
			return Token{Kind: EndArray, Offset: start}, nil
		case top.isObject && top.count == 0 && b == '"':
			// First key right after '{'.
			t.unreadByte()
			return t.key(top)
		case !top.isObject && top.count == 0:
			// First element right after '['.
			t.unreadByte()
			t.expectValue = true
			return t.Next()
		default:
			return Token{}, t.errf("expected ',' or container close, got %q", b)
		}
	}

	// A value is expected here.
	switch {
	case b == '{':
		if len(t.stack) >= t.opts.MaxDepth {
			return Token{}, t.errf("nesting depth exceeds %d", t.opts.MaxDepth)
		}
		f := frame{isObject: true}
		if !t.opts.AllowDuplicateKeys {
			f.keys = make(map[string]bool)
		}
		t.stack = append(t.stack, f)
		t.expectValue = false
		return Token{Kind: BeginObject, Offset: start}, nil
	case b == '[':
		if len(t.stack) >= t.opts.MaxDepth {
			return Token{}, t.errf("nesting depth exceeds %d", t.opts.MaxDepth)
		}
		t.stack = append(t.stack, frame{})
		t.expectValue = false
		return Token{Kind: BeginArray, Offset: start}, nil
	case b == '"':
		s, err := t.string()
		if err != nil {
			return Token{}, err
		}
		t.valueDone()
		return Token{Kind: StringTok, Str: s, Offset: start}, nil
	case b >= '0' && b <= '9':
		t.unreadByte()
		n, err := t.number()
		if err != nil {
			return Token{}, err
		}
		t.valueDone()
		return Token{Kind: NumberTok, Num: n, Offset: start}, nil
	default:
		return Token{}, t.errf("unexpected character %q at start of value", b)
	}
}

// key reads `"k":` after '{' or ',' inside an object and returns the
// KeyTok token, arranging for the following call to read the value.
func (t *Tokenizer) key(top *frame) (Token, error) {
	if err := t.skipSpace(); err != nil {
		return Token{}, t.eofErrf(err, "unexpected end of input inside object")
	}
	b, err := t.readByte()
	if err != nil {
		return Token{}, err
	}
	start := t.offset - 1
	if b != '"' {
		return Token{}, t.errf("expected object key, got %q", b)
	}
	k, err := t.string()
	if err != nil {
		return Token{}, err
	}
	if top.keys != nil {
		if top.keys[k] {
			return Token{}, t.errf("duplicate object key %q", k)
		}
		top.keys[k] = true
	}
	if err := t.skipSpace(); err != nil {
		return Token{}, t.eofErrf(err, "unexpected end of input after key")
	}
	if b, err = t.readByte(); err != nil || b != ':' {
		if err != nil && err != io.EOF {
			return Token{}, err
		}
		return Token{}, t.errf("expected ':' after key %q", k)
	}
	top.count++
	t.expectValue = true
	return Token{Kind: KeyTok, Str: k, Offset: start}, nil
}

// pop closes the top container.
func (t *Tokenizer) pop() {
	t.stack = t.stack[:len(t.stack)-1]
	t.valueDone()
}

// valueDone records that a complete value has just been produced.
func (t *Tokenizer) valueDone() {
	t.expectValue = false
	if len(t.stack) == 0 {
		t.done = true
		return
	}
	if !t.stack[len(t.stack)-1].isObject {
		t.stack[len(t.stack)-1].count++
	}
}

// string reads the remainder of a string literal (the opening quote is
// consumed) and decodes escapes.
func (t *Tokenizer) string() (string, error) {
	t.strBuf.Reset()
	for {
		b, err := t.readByte()
		if err != nil {
			return "", t.eofErrf(err, "unterminated string")
		}
		switch {
		case b == '"':
			return t.strBuf.String(), nil
		case b == '\\':
			e, err := t.readByte()
			if err != nil {
				return "", t.eofErrf(err, "unterminated escape")
			}
			switch e {
			case '"', '\\', '/':
				t.strBuf.WriteByte(e)
			case 'b':
				t.strBuf.WriteByte('\b')
			case 'f':
				t.strBuf.WriteByte('\f')
			case 'n':
				t.strBuf.WriteByte('\n')
			case 'r':
				t.strBuf.WriteByte('\r')
			case 't':
				t.strBuf.WriteByte('\t')
			case 'u':
				r, err := t.hex4()
				if err != nil {
					return "", err
				}
				if utf16IsHighSurrogate(r) {
					// Expect a low surrogate escape.
					b1, err1 := t.readByte()
					b2, err2 := t.readByte()
					if err1 != nil || err2 != nil || b1 != '\\' || b2 != 'u' {
						if err1 != nil && err1 != io.EOF {
							return "", err1
						}
						if err2 != nil && err2 != io.EOF {
							return "", err2
						}
						return "", t.errf("unpaired surrogate \\u%04X", r)
					}
					lo, err := t.hex4()
					if err != nil {
						return "", err
					}
					if !utf16IsLowSurrogate(lo) {
						return "", t.errf("invalid low surrogate \\u%04X", lo)
					}
					r = 0x10000 + (r-0xD800)<<10 + (lo - 0xDC00)
				} else if utf16IsLowSurrogate(r) {
					return "", t.errf("unpaired low surrogate \\u%04X", r)
				}
				t.strBuf.WriteRune(rune(r))
			default:
				return "", t.errf("invalid escape \\%c", e)
			}
		case b < 0x20:
			return "", t.errf("raw control character 0x%02x in string", b)
		case b < utf8.RuneSelf:
			t.strBuf.WriteByte(b)
		default:
			// Multi-byte UTF-8: copy the full rune through.
			t.unreadByte()
			r, size, err := t.rune()
			if err != nil {
				return "", err
			}
			_ = size
			t.strBuf.WriteRune(r)
		}
	}
}

func (t *Tokenizer) rune() (rune, int, error) {
	var buf [4]byte
	b0, err := t.readByte()
	if err != nil {
		return 0, 0, t.eofErrf(err, "truncated UTF-8 sequence")
	}
	buf[0] = b0
	n := utf8ByteLen(b0)
	if n == 0 {
		return 0, 0, t.errf("invalid UTF-8 lead byte 0x%02x", b0)
	}
	for i := 1; i < n; i++ {
		bi, err := t.readByte()
		if err != nil {
			return 0, 0, t.eofErrf(err, "truncated UTF-8 sequence")
		}
		buf[i] = bi
	}
	r, size := utf8.DecodeRune(buf[:n])
	if r == utf8.RuneError && size <= 1 {
		return 0, 0, t.errf("invalid UTF-8 sequence")
	}
	return r, size, nil
}

func utf8ByteLen(b byte) int {
	switch {
	case b < 0x80:
		return 1
	case b&0xE0 == 0xC0:
		return 2
	case b&0xF0 == 0xE0:
		return 3
	case b&0xF8 == 0xF0:
		return 4
	default:
		return 0
	}
}

func utf16IsHighSurrogate(r uint32) bool { return r >= 0xD800 && r <= 0xDBFF }
func utf16IsLowSurrogate(r uint32) bool  { return r >= 0xDC00 && r <= 0xDFFF }

func (t *Tokenizer) hex4() (uint32, error) {
	var v uint32
	for i := 0; i < 4; i++ {
		b, err := t.readByte()
		if err != nil {
			return 0, t.eofErrf(err, "truncated \\u escape")
		}
		v <<= 4
		switch {
		case b >= '0' && b <= '9':
			v |= uint32(b - '0')
		case b >= 'a' && b <= 'f':
			v |= uint32(b-'a') + 10
		case b >= 'A' && b <= 'F':
			v |= uint32(b-'A') + 10
		default:
			return 0, t.errf("invalid hex digit %q in \\u escape", b)
		}
	}
	return v, nil
}

// number reads a natural-number literal (the model of §2 restricts
// numbers to naturals).
func (t *Tokenizer) number() (uint64, error) {
	var v uint64
	digits := 0
	leadingZero := false
	for {
		b, err := t.readByte()
		if err != nil {
			if err == io.EOF {
				break
			}
			return 0, err
		}
		if b < '0' || b > '9' {
			t.unreadByte()
			break
		}
		if digits == 1 && v == 0 {
			leadingZero = true
		}
		d := uint64(b - '0')
		if v > (^uint64(0)-d)/10 {
			return 0, t.errf("number literal overflows uint64")
		}
		v = v*10 + d
		digits++
	}
	if digits == 0 {
		return 0, t.errf("expected digits")
	}
	if leadingZero {
		return 0, t.errf("number literal with leading zero")
	}
	return v, nil
}
