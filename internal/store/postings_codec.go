package store

// postings_codec.go: the on-wire posting-list layout segment files
// use. A list of sorted, duplicate-free uint32 ordinals is cut into
// blocks of segBlockSize entries; each block stores its values as
// varint deltas from the block's first ordinal, and that first
// ordinal lives in a fixed-width skip entry alongside the block's
// byte offset. Intersections gallop across the skip table — whole
// blocks whose ordinal range cannot contain a probe are skipped
// without decoding a byte — and decode at most the blocks they
// actually visit.
//
// Per term the layout is:
//
//	skip table: blockCount × (u32 firstOrdinal | u32 dataOffset)
//	block data: per block, (count-1) uvarint deltas (the first
//	            ordinal is the skip entry's, so a 1-entry block
//	            has no data at all)
//
// dataOffset is relative to the start of the skip table, so a term's
// whole encoding is position-independent. All integers little-endian;
// deltas are strictly positive (lists are strictly increasing).
//
// The decoder trusts nothing: every varint is bounds-checked against
// the term's slice, deltas of zero and ordinal overflow are errors,
// and a corrupt block yields an error — never a panic or an over-read
// (FuzzPostingsCodec pins this).

import (
	"encoding/binary"
	"errors"
	"fmt"
)

const (
	// segmentBlockSize is the postings block length of every segment
	// this build writes. 128 keeps a decoded block in two cache lines
	// of uint32s while amortizing the skip entry to under a bit per
	// posting. Readers take the block size from the segment's footer.
	segmentBlockSize = 128
	// maxBlockSize bounds the block size a footer may declare; a block
	// must decode into a small pooled buffer.
	maxBlockSize = 1 << 15
	// skipEntrySize is the fixed width of one skip-table entry.
	skipEntrySize = 8
)

// errCorruptPostings marks a posting-list decode failure: a varint
// overrunning the term's bytes, a zero delta, ordinal overflow, or a
// skip table inconsistent with the declared count. Segment opens
// validate a whole-file CRC, so hitting this after open means the
// file changed underneath the map (or a bug); either way the decoder
// refuses rather than guessing.
var errCorruptPostings = errors.New("corrupt posting block")

// postingBlocks computes how many blocks an n-entry list occupies.
func postingBlocks(n, blockSize int) int {
	return (n + blockSize - 1) / blockSize
}

// encodedPostings is one term's complete on-wire encoding: the skip
// table followed by the block data.
//
// appendPostings appends it to dst and returns the extended slice.
// ords must be sorted and duplicate-free.
func appendPostings(dst []byte, ords []ordinal, blockSize int) []byte {
	blocks := postingBlocks(len(ords), blockSize)
	base := len(dst)
	// Reserve the skip table; offsets are patched as blocks are laid
	// down.
	for i := 0; i < blocks*skipEntrySize; i++ {
		dst = append(dst, 0)
	}
	for b := 0; b < blocks; b++ {
		lo := b * blockSize
		hi := min(lo+blockSize, len(ords))
		entry := dst[base+b*skipEntrySize:]
		binary.LittleEndian.PutUint32(entry, ords[lo])
		binary.LittleEndian.PutUint32(entry[4:], uint32(len(dst)-base))
		prev := ords[lo]
		for _, v := range ords[lo+1 : hi] {
			dst = binary.AppendUvarint(dst, uint64(v-prev))
			prev = v
		}
	}
	return dst
}

// postingList is a decoder's view of one term's encoding inside a
// segment: the raw bytes (skip table + block data), the entry count
// and the block size the writer used. The zero value is an empty
// list.
type postingList struct {
	raw       []byte
	count     int
	blockSize int
}

// blocks returns the skip-table length.
func (pl postingList) blocks() int {
	if pl.count == 0 {
		return 0
	}
	return postingBlocks(pl.count, pl.blockSize)
}

// blockLen returns how many ordinals block b holds.
func (pl postingList) blockLen(b int) int {
	if lo := b * pl.blockSize; lo+pl.blockSize > pl.count {
		return pl.count - lo
	}
	return pl.blockSize
}

// skipFirst returns block b's first ordinal from its skip entry.
func (pl postingList) skipFirst(b int) ordinal {
	return binary.LittleEndian.Uint32(pl.raw[b*skipEntrySize:])
}

// skipOff returns block b's data offset (relative to raw's start).
func (pl postingList) skipOff(b int) int {
	return int(binary.LittleEndian.Uint32(pl.raw[b*skipEntrySize+4:]))
}

// valid structurally checks the list header against its raw bytes so
// the per-block decoders can index the skip table without re-checking:
// count within bounds, a whole skip table present, offsets inside raw
// and monotone, first ordinals strictly increasing across blocks.
func (pl postingList) valid() error {
	if pl.count < 0 || pl.blockSize < 1 || pl.blockSize > maxBlockSize {
		return fmt.Errorf("%w: count %d blockSize %d", errCorruptPostings, pl.count, pl.blockSize)
	}
	if pl.count == 0 {
		return nil
	}
	blocks := pl.blocks()
	if blocks > len(pl.raw)/skipEntrySize {
		return fmt.Errorf("%w: %d blocks need %d skip bytes, have %d", errCorruptPostings, blocks, blocks*skipEntrySize, len(pl.raw))
	}
	prevOff := blocks * skipEntrySize
	for b := 0; b < blocks; b++ {
		off := pl.skipOff(b)
		if off < prevOff || off > len(pl.raw) {
			return fmt.Errorf("%w: block %d offset %d out of order or range", errCorruptPostings, b, off)
		}
		if b > 0 && pl.skipFirst(b) <= pl.skipFirst(b-1) {
			return fmt.Errorf("%w: block %d first ordinal not increasing", errCorruptPostings, b)
		}
		prevOff = off
	}
	return nil
}

// decodeBlock appends block b's ordinals to out and returns the
// extended slice. The caller must have run valid() once per list;
// decodeBlock still bounds-checks every varint so a corrupt data area
// errors instead of over-reading.
func (pl postingList) decodeBlock(b int, out []ordinal) ([]ordinal, error) {
	n := pl.blockLen(b)
	v := pl.skipFirst(b)
	out = append(out, v)
	data := pl.raw[pl.skipOff(b):]
	pos := 0
	for i := 1; i < n; i++ {
		d, k := binary.Uvarint(data[pos:])
		if k <= 0 {
			return out, fmt.Errorf("%w: block %d entry %d: truncated varint", errCorruptPostings, b, i)
		}
		pos += k
		if d == 0 || uint64(v)+d > uint64(^ordinal(0)) {
			return out, fmt.Errorf("%w: block %d entry %d: delta %d", errCorruptPostings, b, i, d)
		}
		v += ordinal(d)
		out = append(out, v)
	}
	return out, nil
}

// decodeAll appends every ordinal of the list to out.
func (pl postingList) decodeAll(out []ordinal) ([]ordinal, error) {
	var err error
	for b, blocks := 0, pl.blocks(); b < blocks; b++ {
		if out, err = pl.decodeBlock(b, out); err != nil {
			return out, err
		}
	}
	return out, nil
}

// seekBlock returns the index of the last block whose first ordinal
// is ≤ x, starting no earlier than from (callers advance
// monotonically). It gallops: exponential probe over the skip table
// then a binary search of the bracketed window — the skip-level half
// of the compressed galloping intersection. probes reports the skip
// entries examined (the intersection's step counter includes them).
func (pl postingList) seekBlock(from int, x ordinal) (blk, probes int) {
	blocks := pl.blocks()
	// Exponential probe: find the first block past x.
	span := 1
	hi := from + 1
	for hi < blocks && pl.skipFirst(hi) <= x {
		probes++
		hi += span
		span <<= 1
	}
	if hi > blocks {
		hi = blocks
	}
	lo := from + 1
	for lo < hi { // binary search for first block with first > x
		mid := (lo + hi) / 2
		probes++
		if pl.skipFirst(mid) <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1, probes
}

// intersectPostings intersects a sorted candidate slice with a
// compressed list, appending survivors to dst. Blocks are located by
// galloping over the skip table and decoded at most once each into
// scratch (which is reused across blocks); blocks no candidate lands
// in are never decoded. steps counts ordinal comparisons plus skip
// probes — the same work metric the in-memory intersection reports.
func intersectPostings(dst, cand []ordinal, pl postingList, scratch []ordinal) (_ []ordinal, _ []ordinal, steps int, err error) {
	if pl.count == 0 || len(cand) == 0 {
		return dst, scratch, 0, nil
	}
	curBlk := -1 // block currently decoded into scratch
	fromBlk := 0 // seek lower bound (candidates ascend)
	pos := 0     // in-block cursor; monotone while the block is current
	for _, x := range cand {
		if x < pl.skipFirst(0) {
			steps++
			continue
		}
		blk, probes := pl.seekBlock(fromBlk, x)
		steps += probes
		if blk != curBlk {
			scratch = scratch[:0]
			if scratch, err = pl.decodeBlock(blk, scratch); err != nil {
				return dst, scratch, steps, err
			}
			curBlk, pos = blk, 0
		}
		// Same block as the previous candidate: the scan resumes at
		// pos instead of re-searching the prefix (candidates ascend).
		fromBlk = blk
		for pos < len(scratch) && scratch[pos] < x {
			pos++
			steps++
		}
		steps++
		if pos < len(scratch) && scratch[pos] == x {
			dst = append(dst, x)
		}
	}
	return dst, scratch, steps, nil
}
