package store

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// Deterministic codec coverage: round-trips across the block-size and
// list-shape corners, seekBlock's galloping contract, and the
// intersection against a trivial reference. FuzzPostingsCodec extends
// the same properties to arbitrary inputs and adds the hostile-bytes
// side: a decoder fed garbage must error, never panic or over-read.

// roundTrip encodes ords and returns the decoder's view.
func roundTrip(t testing.TB, ords []ordinal, blockSize int) postingList {
	t.Helper()
	raw := appendPostings(nil, ords, blockSize)
	pl := postingList{raw: raw, count: len(ords), blockSize: blockSize}
	if err := pl.valid(); err != nil {
		t.Fatalf("freshly encoded list invalid: %v", err)
	}
	return pl
}

func TestPostingsRoundTrip(t *testing.T) {
	cases := [][]ordinal{
		nil,
		{0},
		{42},
		{0, 1, 2, 3, 4, 5, 6, 7},
		{1, 1 << 10, 1 << 20, 1 << 30, ^ordinal(0)},
	}
	// A long list with irregular gaps, crossing many block boundaries.
	long := make([]ordinal, 0, 1000)
	v := ordinal(0)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		long = append(long, v)
		v += 1 + ordinal(r.Intn(1000))
	}
	cases = append(cases, long)
	for _, ords := range cases {
		for _, bs := range []int{1, 2, 3, 127, 128, maxBlockSize} {
			pl := roundTrip(t, ords, bs)
			got, err := pl.decodeAll(nil)
			if err != nil {
				t.Fatalf("bs=%d n=%d: decodeAll: %v", bs, len(ords), err)
			}
			if len(got) != len(ords) {
				t.Fatalf("bs=%d: decoded %d ordinals, want %d", bs, len(got), len(ords))
			}
			for i := range ords {
				if got[i] != ords[i] {
					t.Fatalf("bs=%d: ordinal %d decoded as %d, want %d", bs, i, got[i], ords[i])
				}
			}
		}
	}
}

func TestPostingsSeekBlock(t *testing.T) {
	// Blocks of 4 starting at 0, 40, 80, ...: first ordinals are
	// predictable so every bracketing case is checkable.
	var ords []ordinal
	for b := 0; b < 10; b++ {
		for i := 0; i < 4; i++ {
			ords = append(ords, ordinal(b*40+i*10))
		}
	}
	pl := roundTrip(t, ords, 4)
	for _, tc := range []struct {
		from int
		x    ordinal
		want int
	}{
		{0, 0, 0},    // first ordinal of first block
		{0, 39, 0},   // inside first block's range
		{0, 40, 1},   // exactly a later block's first
		{0, 75, 1},   // between blocks
		{0, 1000, 9}, // past the end
		{3, 170, 4},  // monotone lower bound respected
		{8, 500, 9},  // from near the end
	} {
		if got, _ := pl.seekBlock(tc.from, tc.x); got != tc.want {
			t.Errorf("seekBlock(%d, %d) = %d, want %d", tc.from, tc.x, got, tc.want)
		}
	}
}

func TestPostingsIntersect(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		list := randomOrdinals(r, r.Intn(400), 5)
		cand := randomOrdinals(r, r.Intn(400), 5)
		bs := []int{1, 3, 16, 128}[trial%4]
		pl := roundTrip(t, list, bs)
		got, _, _, err := intersectPostings(nil, cand, pl, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := referenceIntersect(cand, list)
		if len(got) != len(want) {
			t.Fatalf("trial %d (bs=%d): %d survivors, want %d", trial, bs, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: survivor %d is %d, want %d", trial, i, got[i], want[i])
			}
		}
	}
}

func randomOrdinals(r *rand.Rand, n, gap int) []ordinal {
	out := make([]ordinal, 0, n)
	v := ordinal(r.Intn(gap))
	for i := 0; i < n; i++ {
		out = append(out, v)
		v += 1 + ordinal(r.Intn(gap))
	}
	return out
}

func referenceIntersect(cand, list []ordinal) []ordinal {
	in := make(map[ordinal]bool, len(list))
	for _, v := range list {
		in[v] = true
	}
	var out []ordinal
	for _, v := range cand {
		if in[v] {
			out = append(out, v)
		}
	}
	return out
}

// FuzzPostingsCodec pins the codec's two safety contracts. Round-trip:
// any sorted duplicate-free list encodes to bytes that validate and
// decode back identically at any block size. Hostile bytes: a decoder
// handed arbitrary raw bytes with an arbitrary claimed count either
// rejects them in valid() or decodes/intersects without panicking or
// reading outside the slice — corruption is an error, never a crash.
func FuzzPostingsCodec(f *testing.F) {
	f.Add([]byte{}, uint16(1))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint16(2))
	f.Add(appendPostings(nil, []ordinal{1, 5, 9, 1 << 20}, 2), uint16(2))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x80, 0x80}, uint16(128))
	f.Fuzz(func(t *testing.T, data []byte, bsRaw uint16) {
		blockSize := int(bsRaw)%maxBlockSize + 1

		// Round-trip: derive a sorted unique list from the data bytes
		// (each byte is a strictly positive gap, so the list is valid by
		// construction).
		ords := make([]ordinal, 0, len(data))
		v := ordinal(0)
		for _, b := range data {
			v += ordinal(b) + 1
			ords = append(ords, v)
		}
		pl := roundTrip(t, ords, blockSize)
		got, err := pl.decodeAll(nil)
		if err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		if len(got) != len(ords) {
			t.Fatalf("round-trip length %d, want %d", len(got), len(ords))
		}
		for i := range ords {
			if got[i] != ords[i] {
				t.Fatalf("round-trip ordinal %d: %d != %d", i, got[i], ords[i])
			}
		}

		// Hostile bytes: reinterpret data as a raw posting list with a
		// count read from its first bytes. valid() may reject it; if it
		// does not, decoding must stay in-bounds and intersection must
		// not panic. Errors are fine either way.
		count := 0
		if len(data) >= 2 {
			count = int(binary.LittleEndian.Uint16(data)) + 1
		}
		hostile := postingList{raw: data, count: count, blockSize: blockSize}
		if err := hostile.valid(); err == nil {
			if _, err := hostile.decodeAll(nil); err != nil {
				_ = err // corruption detected past the structural check: fine
			}
			cand := []ordinal{0, 1, 1 << 8, 1 << 16, 1 << 24, ^ordinal(0)}
			if _, _, _, err := intersectPostings(nil, cand, hostile, nil); err != nil {
				_ = err
			}
		}
	})
}
