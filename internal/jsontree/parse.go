package jsontree

import "jsonlogic/internal/jsonval"

// Parse parses a JSON document and returns its tree. It accepts
// exactly the language of jsonval.Parse, with the same errors at the
// same offsets — the two drive one jsonval.Lexer — except that a
// duplicate key is found when its object closes, so an error later
// in that object is reported first. It builds no jsonval.Value: a
// single recursive descent scans the text straight into a pooled
// Builder, so a document costs the Tree's four allocations plus one
// per string that has escapes. The tree copies its keys and strings
// into its own heap, so it keeps nothing of input alive.
func Parse(input string) (*Tree, error) {
	p := pool.Get().(*parser)
	defer release(p)
	p.Reset(input)
	p.SkipSpace()
	if err := p.value(""); err != nil {
		return nil, err
	}
	p.SkipSpace()
	if p.Pos != len(p.In) {
		return nil, p.Errorf("unexpected trailing input")
	}
	return p.b.tree(), nil
}

// MustParse is Parse but panics on error; for tests and examples.
func MustParse(input string) *Tree {
	t, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return t
}

// parser is the tree-building grammar over jsonval's Lexer. The
// Builder's stack of open containers doubles as the nesting depth.
type parser struct {
	jsonval.Lexer
	b Builder
}

// value parses one value reached by the edge labelled key.
func (p *parser) value(key string) error {
	if p.Pos >= len(p.In) {
		return p.ValueError()
	}
	switch c := p.In[p.Pos]; {
	case c == '{' || c == '[':
		if len(p.b.stack) >= jsonval.MaxDepth {
			return p.Errorf("nesting depth exceeds %d", jsonval.MaxDepth)
		}
		if c == '{' {
			return p.object(key)
		}
		return p.array(key)
	case c == '"':
		s, err := p.ScanString()
		if err != nil {
			return err
		}
		p.b.addString(key, s)
	case c >= '0' && c <= '9':
		n, err := p.ScanNumber()
		if err != nil {
			return err
		}
		p.b.addNumber(key, n)
	default:
		return p.ValueError()
	}
	return nil
}

func (p *parser) object(key string) error {
	start := p.Pos
	p.b.open(ObjectNode, key)
	if p.Open() {
		p.b.close()
		return nil
	}
	for {
		k, err := p.ObjectKey()
		if err != nil {
			return err
		}
		if err := p.value(k); err != nil {
			return err
		}
		more, err := p.More('}')
		if err != nil {
			return err
		}
		if !more {
			// Duplicates surface when the sorted members are checked,
			// reported at the object's offset as jsonval.Parse does.
			if k, dup := p.b.close(); dup {
				return jsonval.DuplicateKeyError(start, k)
			}
			return nil
		}
	}
}

func (p *parser) array(key string) error {
	p.b.open(ArrayNode, key)
	if p.Open() {
		p.b.close()
		return nil
	}
	for {
		if err := p.value(""); err != nil {
			return err
		}
		more, err := p.More(']')
		if err != nil {
			return err
		}
		if !more {
			p.b.close()
			return nil
		}
	}
}
