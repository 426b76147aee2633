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
//
// The tokenizer holds only the structure of a document: punctuation,
// nesting and key uniqueness. Each string and number literal is read
// raw and decoded by jsonval.Lexer, the one implementation of the
// document language's token rules that the store's parsers and its
// exact-find text check drive too; a rejected literal carries the
// Lexer's message at its absolute offset.
package stream

import (
	"bufio"
	"fmt"
	"io"
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
// using memory proportional to the open-nesting depth plus the longest
// literal it accepts: a rejected one is read no further than one
// buffer past the byte that rejects it.
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

	// lit holds the raw bytes of the string or number literal being
	// read; lex decodes them.
	lit []byte
	lex jsonval.Lexer[[]byte]
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
		s, err := t.string(start)
		if err != nil {
			return Token{}, err
		}
		t.valueDone()
		return Token{Kind: StringTok, Str: s, Offset: start}, nil
	case b >= '0' && b <= '9':
		t.unreadByte()
		n, err := t.number(start)
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
	k, err := t.string(start)
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

// string reads the rest of the string literal whose opening quote,
// at offset start, was just read, and decodes it with the document
// language's Lexer. The raw literal is read up to its closing quote —
// a quote after an odd run of backslashes is escaped, and the read
// goes on — into one reused buffer. A literal that goes on past one
// read is checked as it grows, and read only up to a byte that no
// literal may hold (see badByte), so a rejected literal is not
// buffered to its end.
func (t *Tokenizer) string(start int64) (string, error) {
	t.lit = append(t.lit[:0], '"')
	checked := 1
	for {
		chunk, err := t.r.ReadSlice('"')
		t.lit = append(t.lit, chunk...)
		t.offset += int64(len(chunk))
		if err != nil && err != bufio.ErrBufferFull {
			if err != io.EOF {
				return "", err
			}
			break // the Lexer reports the unterminated literal
		}
		if err == nil {
			backslashes := 0
			for i := len(t.lit) - 2; t.lit[i] == '\\'; i-- {
				backslashes++
			}
			if backslashes%2 == 0 {
				break
			}
		}
		var bad bool
		if bad, checked = badByte(t.lit, checked); bad {
			break
		}
	}
	t.lex.Reset(t.lit)
	s, err := t.lex.ScanString()
	var str string
	if err == nil {
		str = string(s)
	}
	t.release()
	if err != nil {
		return "", literalError(start, err)
	}
	return str, nil
}

// maxLit bounds the literal buffer a Tokenizer keeps between
// literals, as the Lexer bounds its decoding scratch.
const maxLit = 64 << 10

// release drops the Lexer's view of the literal just decoded, and the
// literal buffer and decoding scratch if a long string grew them past
// their bounds, so a Tokenizer does not hold its longest literal for
// the rest of the stream.
func (t *Tokenizer) release() {
	t.lex.Reset(nil)
	if cap(t.lit) > maxLit {
		t.lit = nil
	}
}

// badByte reports whether lit[from:] holds a byte that no string
// literal may hold: a raw control byte, or one that starts no valid
// UTF-8 sequence. It also returns how far lit is checked, which stops
// short of a trailing sequence the next read may complete. The Lexer
// still decides the literal, and it rejects it at or before that
// byte, from the bytes up to it alone.
func badByte(lit []byte, from int) (bool, int) {
	for i := from; i < len(lit); {
		switch c := lit[i]; {
		case c < 0x20:
			return true, i
		case c < utf8.RuneSelf:
			i++
		case !utf8.FullRune(lit[i:]):
			return false, i
		default:
			r, size := utf8.DecodeRune(lit[i:])
			if r == utf8.RuneError && size == 1 {
				return true, i
			}
			i += size
		}
	}
	return false, len(lit)
}

// maxDigits is one more than the digits of 2^64-1, the largest
// natural: the Lexer rejects a longer digit run on its first maxDigits
// digits, so number reads no further.
const maxDigits = len("18446744073709551615") + 1

// number reads the natural-number literal starting at offset start —
// at most maxDigits digits, and the byte after them when that is '.',
// 'e' or 'E' (the Lexer rejects fractions there) — and decodes it
// with the Lexer.
func (t *Tokenizer) number(start int64) (uint64, error) {
	t.lit = t.lit[:0]
	for len(t.lit) < maxDigits {
		b, err := t.readByte()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		t.lit = append(t.lit, b)
		if b < '0' || b > '9' {
			if b != '.' && b != 'e' && b != 'E' {
				t.lit = t.lit[:len(t.lit)-1]
				t.unreadByte()
			}
			break
		}
	}
	t.lex.Reset(t.lit)
	n, err := t.lex.ScanNumber()
	t.release()
	if err != nil {
		return 0, literalError(start, err)
	}
	return n, nil
}

// literalError places the Lexer's error in a literal starting at
// offset start at its absolute offset in the document.
func literalError(start int64, err error) error {
	le := err.(*jsonval.SyntaxError)
	return &SyntaxError{Offset: start + int64(le.Offset), Msg: le.Msg}
}
