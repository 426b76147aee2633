// Package jsonval implements the JSON value model of Bourhis, Reutter,
// Suárez and Vrgoč (PODS 2017, §2). Following the paper, the value space
// is restricted to four kinds: objects, arrays, strings and natural
// numbers. Objects are sets of key-value pairs with pairwise-distinct
// keys; arrays are ordered sequences.
//
// The package provides an immutable value ADT, a hand-written
// lexer/parser that enforces the paper's restrictions (duplicate keys are
// rejected, numbers must be naturals) — the Lexer is exported, generic
// over string and []byte input, so that jsontree's parser and text
// check and the streaming tokenizer scan with the same code —
// serializers (compact,
// indented and canonical forms), deep structural equality and
// structural hashing.
package jsonval

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Kind identifies one of the four JSON value kinds of the paper's model.
type Kind uint8

const (
	// Number is a natural number value (n >= 0).
	Number Kind = iota
	// String is a unicode string value.
	String
	// Object is a set of key-value pairs with pairwise-distinct keys.
	Object
	// Array is an ordered sequence of values.
	Array
)

// String returns the lower-case name of the kind, matching the names used
// by the JSON Schema "type" keyword.
func (k Kind) String() string {
	switch k {
	case Number:
		return "number"
	case String:
		return "string"
	case Object:
		return "object"
	case Array:
		return "array"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Member is a single key-value pair of an object.
type Member struct {
	Key   string
	Value *Value
}

// Value is an immutable JSON value. The zero value is the number 0.
// Values must be constructed through Num, Str, Obj and Arr (or the
// parser); fields are unexported to preserve the invariants that object
// keys are pairwise distinct and that nested values are non-nil.
type Value struct {
	kind    Kind
	num     uint64
	str     string
	members []Member // object members, insertion order preserved
	elems   []*Value // array elements
	hash    uint64   // structural hash, computed at construction
}

// Num returns the JSON number n.
func Num(n uint64) *Value {
	v := &Value{kind: Number, num: n}
	v.hash = v.computeHash()
	return v
}

// Str returns the JSON string s.
func Str(s string) *Value {
	v := &Value{kind: String, str: s}
	v.hash = v.computeHash()
	return v
}

// Obj returns the JSON object with the given members, preserving their
// order for serialization. It returns an error if two members share a key
// or any member value is nil, mirroring the paper's requirement that keys
// of an object are pairwise distinct.
func Obj(members ...Member) (*Value, error) {
	seen := make(map[string]struct{}, len(members))
	for _, m := range members {
		if m.Value == nil {
			return nil, fmt.Errorf("jsonval: nil value for key %q", m.Key)
		}
		if _, dup := seen[m.Key]; dup {
			return nil, fmt.Errorf("jsonval: duplicate key %q in object", m.Key)
		}
		seen[m.Key] = struct{}{}
	}
	v := &Value{kind: Object, members: append([]Member(nil), members...)}
	v.hash = v.computeHash()
	return v, nil
}

// MustObj is like Obj but panics on error. It is intended for literals in
// tests and examples where keys are statically known to be distinct.
func MustObj(members ...Member) *Value {
	v, err := Obj(members...)
	if err != nil {
		panic(err)
	}
	return v
}

// Arr returns the JSON array with the given elements. Nil elements panic.
func Arr(elems ...*Value) *Value {
	for i, e := range elems {
		if e == nil {
			panic(fmt.Sprintf("jsonval: nil element at index %d", i))
		}
	}
	v := &Value{kind: Array, elems: append([]*Value(nil), elems...)}
	v.hash = v.computeHash()
	return v
}

// Kind reports the kind of the value.
func (v *Value) Kind() Kind { return v.kind }

// IsNumber reports whether the value is a number.
func (v *Value) IsNumber() bool { return v.kind == Number }

// IsString reports whether the value is a string.
func (v *Value) IsString() bool { return v.kind == String }

// IsObject reports whether the value is an object.
func (v *Value) IsObject() bool { return v.kind == Object }

// IsArray reports whether the value is an array.
func (v *Value) IsArray() bool { return v.kind == Array }

// Num returns the numeric value. It panics if the value is not a number.
func (v *Value) Num() uint64 {
	if v.kind != Number {
		panic("jsonval: Num called on " + v.kind.String())
	}
	return v.num
}

// Str returns the string value. It panics if the value is not a string.
func (v *Value) Str() string {
	if v.kind != String {
		panic("jsonval: Str called on " + v.kind.String())
	}
	return v.str
}

// Len returns the number of members of an object or elements of an array,
// and 0 for numbers and strings.
func (v *Value) Len() int {
	switch v.kind {
	case Object:
		return len(v.members)
	case Array:
		return len(v.elems)
	}
	return 0
}

// Member returns the value under key in an object, implementing the JSON
// navigation instruction J[key] of §2. The second result reports whether
// the key is present. It panics if the value is not an object.
func (v *Value) Member(key string) (*Value, bool) {
	if v.kind != Object {
		panic("jsonval: Member called on " + v.kind.String())
	}
	for _, m := range v.members {
		if m.Key == key {
			return m.Value, true
		}
	}
	return nil, false
}

// Elem returns the i-th element of an array, implementing the JSON
// navigation instruction J[i] of §2. The second result reports whether i
// is in range. Negative indices count from the end, with -1 the last
// element, matching the paper's remark on dual array access.
func (v *Value) Elem(i int) (*Value, bool) {
	if v.kind != Array {
		panic("jsonval: Elem called on " + v.kind.String())
	}
	if i < 0 {
		i += len(v.elems)
	}
	if i < 0 || i >= len(v.elems) {
		return nil, false
	}
	return v.elems[i], true
}

// Members returns the object's key-value pairs in insertion order. The
// returned slice must not be modified. It is empty for non-objects.
func (v *Value) Members() []Member {
	if v.kind != Object {
		return nil
	}
	return v.members
}

// Elems returns the array's elements in order. The returned slice must not
// be modified. It is empty for non-arrays.
func (v *Value) Elems() []*Value {
	if v.kind != Array {
		return nil
	}
	return v.elems
}

// Keys returns the object's keys in insertion order.
func (v *Value) Keys() []string {
	if v.kind != Object {
		return nil
	}
	keys := make([]string, len(v.members))
	for i, m := range v.members {
		keys[i] = m.Key
	}
	return keys
}

// Hash returns a 64-bit structural hash of the value. Equal values (per
// Equal) have equal hashes; object member order does not affect the hash.
func (v *Value) Hash() uint64 { return v.hash }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func (v *Value) computeHash() uint64 {
	switch v.kind {
	case Number:
		return HashNumber(v.num)
	case String:
		return HashString(v.str)
	case Array:
		var ah ArrayHasher
		for _, e := range v.elems {
			ah.Add(e.hash)
		}
		return ah.Sum()
	case Object:
		// Objects are unordered: combine per-member hashes with a
		// commutative fold so member order is irrelevant.
		var oh ObjectHasher
		for _, m := range v.members {
			oh.Add(m.Key, m.Value.hash)
		}
		return oh.Sum()
	}
	return kindSeeds[v.kind]
}

// Equal reports deep structural equality of two values. Objects compare as
// unordered sets of key-value pairs; arrays compare element-wise in order.
// This is the equality used by the paper's json(n) = A comparisons.
func Equal(a, b *Value) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.kind != b.kind || a.hash != b.hash {
		return false
	}
	switch a.kind {
	case Number:
		return a.num == b.num
	case String:
		return a.str == b.str
	case Array:
		if len(a.elems) != len(b.elems) {
			return false
		}
		for i := range a.elems {
			if !Equal(a.elems[i], b.elems[i]) {
				return false
			}
		}
		return true
	case Object:
		if len(a.members) != len(b.members) {
			return false
		}
		for _, m := range a.members {
			bv, ok := b.Member(m.Key)
			if !ok || !Equal(m.Value, bv) {
				return false
			}
		}
		return true
	}
	return false
}

// EqualNaive is Equal without the hash short-circuit: a full recursive
// comparison in O(min(|a|,|b|)). It exists so benchmarks can ablate the
// contribution of structural hashing to subtree-equality checks.
func EqualNaive(a, b *Value) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.kind != b.kind {
		return false
	}
	switch a.kind {
	case Number:
		return a.num == b.num
	case String:
		return a.str == b.str
	case Array:
		if len(a.elems) != len(b.elems) {
			return false
		}
		for i := range a.elems {
			if !EqualNaive(a.elems[i], b.elems[i]) {
				return false
			}
		}
		return true
	case Object:
		if len(a.members) != len(b.members) {
			return false
		}
		for _, m := range a.members {
			bv, ok := b.Member(m.Key)
			if !ok || !EqualNaive(m.Value, bv) {
				return false
			}
		}
		return true
	}
	return false
}

// Size returns the number of JSON values nested within v, including v
// itself. For the document of Figure 1 of the paper this is 8 (the object,
// the "name" object, two name strings, the age number, the hobbies array
// and its two strings).
func (v *Value) Size() int {
	n := 1
	switch v.kind {
	case Array:
		for _, e := range v.elems {
			n += e.Size()
		}
	case Object:
		for _, m := range v.members {
			n += m.Value.Size()
		}
	}
	return n
}

// Height returns the height of the value seen as a tree: 0 for numbers,
// strings and empty containers.
func (v *Value) Height() int {
	h := 0
	switch v.kind {
	case Array:
		for _, e := range v.elems {
			if eh := e.Height() + 1; eh > h {
				h = eh
			}
		}
	case Object:
		for _, m := range v.members {
			if mh := m.Value.Height() + 1; mh > h {
				h = mh
			}
		}
	}
	return h
}

// String returns the compact serialization of the value.
func (v *Value) String() string {
	var sb strings.Builder
	v.write(&sb, false, "", "")
	return sb.String()
}

// Indent returns an indented serialization using the given indent unit.
func (v *Value) Indent(indent string) string {
	var sb strings.Builder
	v.write(&sb, false, "", indent)
	return sb.String()
}

// Canonical returns a canonical serialization: object members sorted by
// key, no whitespace. Equal values have identical canonical forms, so the
// canonical form can serve as a map key.
func (v *Value) Canonical() string {
	var sb strings.Builder
	v.write(&sb, true, "", "")
	return sb.String()
}

func (v *Value) write(sb *strings.Builder, canonical bool, prefix, indent string) {
	switch v.kind {
	case Number:
		sb.WriteString(strconv.FormatUint(v.num, 10))
	case String:
		writeQuoted(sb, v.str)
	case Array:
		if len(v.elems) == 0 {
			sb.WriteString("[]")
			return
		}
		sb.WriteByte('[')
		inner := prefix + indent
		for i, e := range v.elems {
			if i > 0 {
				sb.WriteByte(',')
			}
			if indent != "" {
				sb.WriteByte('\n')
				sb.WriteString(inner)
			}
			e.write(sb, canonical, inner, indent)
		}
		if indent != "" {
			sb.WriteByte('\n')
			sb.WriteString(prefix)
		}
		sb.WriteByte(']')
	case Object:
		if len(v.members) == 0 {
			sb.WriteString("{}")
			return
		}
		members := v.members
		if canonical {
			members = append([]Member(nil), v.members...)
			sort.Slice(members, func(i, j int) bool { return members[i].Key < members[j].Key })
		}
		sb.WriteByte('{')
		inner := prefix + indent
		for i, m := range members {
			if i > 0 {
				sb.WriteByte(',')
			}
			if indent != "" {
				sb.WriteByte('\n')
				sb.WriteString(inner)
			}
			writeQuoted(sb, m.Key)
			sb.WriteByte(':')
			if indent != "" {
				sb.WriteByte(' ')
			}
			m.Value.write(sb, canonical, inner, indent)
		}
		if indent != "" {
			sb.WriteByte('\n')
			sb.WriteString(prefix)
		}
		sb.WriteByte('}')
	}
}

// writeQuoted renders the string literal through a stack scratch, so
// short strings cost no allocation.
func writeQuoted(sb *strings.Builder, s string) {
	var scratch [64]byte
	sb.Write(AppendQuoted(scratch[:0], s))
}

const hexDigits = "0123456789abcdef"

// AppendQuoted appends the JSON string literal for s to dst — the
// exact bytes Value.String produces for a string value. It is the one
// quoting implementation shared by the value serializers here and the
// tree encoder (jsontree.Tree.AppendJSON), so the two cannot drift.
// Runs of bytes that need no escaping are copied whole; a byte that is
// not valid UTF-8 renders as U+FFFD.
func AppendQuoted(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				dst = append(dst, s[start:i]...)
				dst = utf8.AppendRune(dst, utf8.RuneError)
				start = i + 1
			}
			i += size
			continue
		}
		if c >= 0x20 && c != '"' && c != '\\' {
			i++
			continue
		}
		dst = append(dst, s[start:i]...)
		switch c {
		case '"', '\\':
			dst = append(dst, '\\', c)
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
		i++
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
