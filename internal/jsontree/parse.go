package jsontree

import "jsonlogic/internal/jsonval"

// Parse parses a JSON document and returns its tree: Builder.Parse
// over a pooled Builder, so a document costs the Tree's four
// allocations plus one per string that has escapes.
func Parse(input string) (*Tree, error) {
	b := pool.Get().(*Builder)
	defer release(b)
	return b.Parse(input)
}

// MustParse is Parse but panics on error; for tests and examples.
func MustParse(input string) *Tree {
	t, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return t
}

// Parse parses a JSON document into a tree, reusing b's arenas. It
// is the one route from text to tree: Store.Put, WAL replay, segment
// resolve, PUT /docs, /bulk and the NDJSON readers all come here. It
// accepts exactly the language of jsonval.Parse, with the same errors
// at the same offsets — the two drive one jsonval.Lexer — except that
// a duplicate key is found when its object closes, so an error later
// in that object is reported first. It builds no jsonval.Value: a
// single recursive descent scans the text straight into the arenas.
// The tree copies its keys and strings into its own heap, and b
// forgets input when Parse returns, so neither keeps it alive.
func (b *Builder) Parse(input string) (*Tree, error) {
	defer b.reset()
	b.lex.Reset(input)
	b.lex.SkipSpace()
	if err := b.value(""); err != nil {
		return nil, err
	}
	b.lex.SkipSpace()
	if b.lex.Pos != len(b.lex.In) {
		return nil, b.lex.Errorf("unexpected trailing input")
	}
	return b.tree(), nil
}

// value parses one value reached by the edge labelled key.
func (b *Builder) value(key string) error {
	if b.lex.Pos >= len(b.lex.In) {
		return b.lex.ValueError()
	}
	switch c := b.lex.In[b.lex.Pos]; {
	case c == '{' || c == '[':
		if len(b.stack) >= jsonval.MaxDepth {
			return b.lex.Errorf("nesting depth exceeds %d", jsonval.MaxDepth)
		}
		if c == '{' {
			return b.object(key)
		}
		return b.array(key)
	case c == '"':
		s, err := b.lex.ScanString()
		if err != nil {
			return err
		}
		b.addString(key, s)
	case c >= '0' && c <= '9':
		n, err := b.lex.ScanNumber()
		if err != nil {
			return err
		}
		b.addNumber(key, n)
	default:
		return b.lex.ValueError()
	}
	return nil
}

func (b *Builder) object(key string) error {
	start := b.lex.Pos
	b.open(ObjectNode, key)
	if b.lex.Open() {
		b.close()
		return nil
	}
	for {
		k, err := b.lex.ObjectKey()
		if err != nil {
			return err
		}
		if err := b.value(k); err != nil {
			return err
		}
		more, err := b.lex.More('}')
		if err != nil {
			return err
		}
		if !more {
			// Duplicates surface when the sorted members are checked,
			// reported at the object's offset as jsonval.Parse does.
			if k, dup := b.close(); dup {
				return jsonval.DuplicateKeyError(start, k)
			}
			return nil
		}
	}
}

func (b *Builder) array(key string) error {
	b.open(ArrayNode, key)
	if b.lex.Open() {
		b.close()
		return nil
	}
	for {
		if err := b.value(""); err != nil {
			return err
		}
		more, err := b.lex.More(']')
		if err != nil {
			return err
		}
		if !more {
			b.close()
			return nil
		}
	}
}
