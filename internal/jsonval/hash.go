package jsonval

// Incremental structural hashing. These helpers expose the hash scheme
// used by Value.Hash so that tree representations built without
// materializing Values (notably jsontree.Builder, which parses text
// straight into a tree) produce hashes identical to FromValue
// construction. The json(n) = A comparisons across the system rely on
// that agreement: jnl's EQDoc and jsl's EqDoc compare subtree hashes
// of trees against Value hashes of constants.
//
// The scheme is FNV-1a over a post-order serialization of the value,
// with object members folded commutatively (sum and xor of per-member
// hashes) so member order never affects the hash.

// kindSeeds holds each value kind mixed into a fresh hash state —
// the state every leaf and container hash starts from — computed once
// rather than per node.
var kindSeeds = func() (s [4]uint64) {
	for k := range s {
		s[k] = fnvMix(fnvOffset, uint64(k)+0x9e37)
	}
	return s
}()

// HashNumber returns Num(n).Hash() without allocating the Value.
func HashNumber(n uint64) uint64 {
	return fnvMix(kindSeeds[Number], n)
}

// HashString returns Str(s).Hash() without allocating the Value.
func HashString(s string) uint64 {
	return fnvString(kindSeeds[String], s)
}

// ArrayHasher incrementally computes the hash of an array from its
// element hashes, in order. The zero value is ready to use and hashes
// the empty array.
type ArrayHasher struct {
	h       uint64
	started bool
}

// Add folds in the hash of the next element.
func (a *ArrayHasher) Add(elemHash uint64) {
	if !a.started {
		a.h = kindSeeds[Array]
		a.started = true
	}
	a.h = fnvMix(a.h, elemHash)
}

// Sum returns the array hash over the elements added so far.
func (a *ArrayHasher) Sum() uint64 {
	if !a.started {
		return kindSeeds[Array]
	}
	return a.h
}

// ObjectHasher incrementally computes the hash of an object from its
// members' keys and value hashes, in any order (the fold is
// commutative). The zero value is ready to use and hashes the empty
// object.
type ObjectHasher struct {
	sum, xor uint64
	n        int
}

// Add folds in one member.
func (o *ObjectHasher) Add(key string, valueHash uint64) {
	mh := fnvString(fnvOffset, key)
	mh = fnvMix(mh, valueHash)
	o.sum += mh
	o.xor ^= mh*fnvPrime + 1
	o.n++
}

// Sum returns the object hash over the members added so far.
func (o *ObjectHasher) Sum() uint64 {
	h := kindSeeds[Object]
	h = fnvMix(h, o.sum)
	h = fnvMix(h, o.xor)
	h = fnvMix(h, uint64(o.n))
	return h
}
