package jsontree

import (
	"io"
	"strconv"

	"jsonlogic/internal/jsonval"
)

// AppendJSON appends the compact JSON rendering of json(n), the value
// of the subtree rooted at n, to dst and returns the extended slice.
// It is the one tree→text encoder: String and WriteTo wrap it, and the
// store's WAL payloads and segment documents and the daemon's selected
// values render through it, straight out of the arena with no
// jsonval.Value materialization. Object members appear in the tree's
// key-sorted child order. The output is byte-for-byte
// Value(n).String() (pinned by a property test against randomized
// trees and subtrees).
func (t *Tree) AppendJSON(dst []byte, n NodeID) []byte {
	e := encoder{t: t, buf: dst}
	e.node(n)
	return e.buf
}

// String renders the tree as compact JSON.
func (t *Tree) String() string { return string(t.AppendJSON(nil, t.Root())) }

// writeToChunk is how much rendered text WriteTo accumulates between
// writes to its sink.
const writeToChunk = 4096

// WriteTo writes String() to w in writeToChunk pieces, so serving a
// large document costs a small buffer instead of an allocation the
// size of the document.
//
// WriteTo implements io.WriterTo: it returns the number of bytes
// written to w and the first write error. On error the output is
// truncated mid-document; encoding stops at the next node boundary.
func (t *Tree) WriteTo(w io.Writer) (int64, error) {
	e := encoder{t: t, buf: make([]byte, 0, writeToChunk), w: w}
	e.node(t.Root())
	e.flush()
	return e.written, e.err
}

// encoder is the serializer's state: the output buffer and, when
// streaming, the sink it drains to with the byte count and first error
// of those writes.
type encoder struct {
	t   *Tree
	buf []byte

	w       io.Writer // nil: everything stays in buf
	written int64
	err     error
}

// flush drains buf to the sink; after a write error it only discards.
func (e *encoder) flush() {
	if e.err == nil && len(e.buf) > 0 {
		n, err := e.w.Write(e.buf)
		e.written += int64(n)
		e.err = err
	}
	e.buf = e.buf[:0]
}

func (e *encoder) node(n NodeID) {
	if e.w != nil && len(e.buf) >= writeToChunk {
		e.flush()
	}
	if e.err != nil {
		return
	}
	nd := &e.t.nodes[n]
	switch nd.kind {
	case NumberNode:
		e.buf = strconv.AppendUint(e.buf, nd.num, 10)
	case StringNode:
		e.buf = jsonval.AppendQuoted(e.buf, e.t.str(nd))
	case ArrayNode:
		e.buf = append(e.buf, '[')
		for i, c := range e.t.children(nd) {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.node(c)
		}
		e.buf = append(e.buf, ']')
	case ObjectNode:
		e.buf = append(e.buf, '{')
		for i, c := range e.t.children(nd) {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.buf = jsonval.AppendQuoted(e.buf, e.t.EdgeKey(c))
			e.buf = append(e.buf, ':')
			e.node(c)
		}
		e.buf = append(e.buf, '}')
	}
}
