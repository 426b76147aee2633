package engine

import (
	"bufio"
	"io"
	"sort"
	"strings"
	"sync"

	"jsonlogic/internal/jsontree"
)

// DocResult is the outcome for one document of an NDJSON batch.
type DocResult struct {
	// Index is the document's 0-based position among the non-blank
	// lines of the input; results are returned sorted by Index.
	Index int
	// Line is the 1-based line number the document came from.
	Line int
	// Tree is the materialized document. It is set by EvalReader (whose
	// callers need it to resolve the selected nodes) and nil on
	// ValidateReader results — retaining every tree of a large stream
	// just to report booleans would hold the whole input in memory —
	// and whenever Err is set.
	Tree *jsontree.Tree
	// Nodes holds the selected nodes (EvalReader only).
	Nodes []jsontree.NodeID
	// Valid holds the verdict (ValidateReader only).
	Valid bool
	// Err reports a parse or evaluation failure for this document.
	// A bad line fails alone; the rest of the batch proceeds.
	Err error
}

// MaxNDJSONLine bounds one line of NDJSON input (16 MiB). ScanNDJSON
// enforces it for the engine's readers and the store's bulk ingest
// alike, so the two NDJSON surfaces accept exactly the same documents.
const MaxNDJSONLine = 16 << 20

// ScanNDJSON is the one line rule of the NDJSON surfaces. It calls fn
// with each non-blank line of r and its 1-based line number. A line
// is trimmed of JSON whitespace only — TrimSpace would also strip
// Unicode spaces the document language rejects — and one left empty
// is skipped. A non-nil error from fn stops the scan and is returned;
// otherwise the result is the reader's own failure (an I/O error or a
// line over MaxNDJSONLine, after which the stream cannot be
// resynchronized), nil at a clean end.
func ScanNDJSON(r io.Reader, fn func(line int, text string) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), MaxNDJSONLine)
	for line := 1; sc.Scan(); line++ {
		if text := strings.Trim(sc.Text(), " \t\r\n"); text != "" {
			if err := fn(line, text); err != nil {
				return err
			}
		}
	}
	return sc.Err()
}

// EvalReader runs the plan's node-selection semantics over every
// document of an NDJSON stream (one JSON document per line; blank
// lines are skipped; see ScanNDJSON). Each line is parsed straight
// into a tree by jsontree.Parse, the store's route, so the jsonval
// layer is bypassed entirely. The returned error reports a failure of
// the reader itself — an I/O error or a line exceeding 16 MiB, after
// which the stream cannot be resynchronized — not of individual
// documents; the results computed before the failure are returned
// alongside it.
func (e *Engine) EvalReader(p *Plan, r io.Reader) ([]DocResult, error) {
	return e.runNDJSON(p, r, false)
}

// ValidateReader runs the plan's boolean semantics over every document
// of an NDJSON stream. See EvalReader for the input contract.
func (e *Engine) ValidateReader(p *Plan, r io.Reader) ([]DocResult, error) {
	return e.runNDJSON(p, r, true)
}

type ndjsonItem struct {
	index int
	line  int
	text  string
}

func (e *Engine) runNDJSON(p *Plan, r io.Reader, validate bool) ([]DocResult, error) {
	items := make(chan ndjsonItem, e.workers*2)
	scanErr := make(chan error, 1)
	go func() {
		defer close(items)
		index := 0
		scanErr <- ScanNDJSON(r, func(line int, text string) error {
			items <- ndjsonItem{index: index, line: line, text: text}
			index++
			return nil
		})
	}()

	var (
		mu      sync.Mutex
		results []DocResult
		wg      sync.WaitGroup
	)
	wg.Add(e.workers)
	for w := 0; w < e.workers; w++ {
		go func() {
			defer wg.Done()
			for it := range items {
				res := DocResult{Index: it.index, Line: it.line}
				tree, err := jsontree.Parse(it.text)
				switch {
				case err != nil:
					res.Err = err
				case validate:
					res.Valid, res.Err = e.Validate(p, tree)
				default:
					res.Tree = tree
					res.Nodes, res.Err = e.Eval(p, tree)
				}
				mu.Lock()
				results = append(results, res)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(results, func(i, j int) bool { return results[i].Index < results[j].Index })
	return results, <-scanErr
}

// BuildTree reads one JSON document from r to its end and parses it
// into a tree with b, or, when b is nil, with jsontree.Parse's pooled
// Builder (PUT /docs). The caller bounds r, and a read error is
// returned unwrapped, before any parsing.
func BuildTree(r io.Reader, b *jsontree.Builder) (*jsontree.Tree, error) {
	text, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if b == nil {
		return jsontree.Parse(string(text))
	}
	return b.Parse(string(text))
}
