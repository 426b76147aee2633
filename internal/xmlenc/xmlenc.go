// Package xmlenc encodes JSON trees as XML-style ordered labelled
// trees, the encoding §3.2 of the paper discusses and argues against.
//
// The encoding follows the paper's observation: XML has no edge labels,
// so object keys must become node labels. Retrieving the value under a
// key then requires scanning all children of a node and comparing
// labels — O(fanout) per step instead of the O(log fanout) (or O(1))
// lookup the deterministic JSON tree model admits. The package exists
// to measure exactly that gap (BenchmarkAblationXMLKeyLookup) and to
// make the modelling differences concrete: XML nodes expose ordered
// sibling traversal, which JSON trees deliberately lack, while the
// JSON kinds and the object/array distinction must be tunnelled
// through reserved labels.
package xmlenc

import (
	"fmt"
	"strings"

	"jsonlogic/internal/jsonval"
)

// Label names reserved by the encoding. Keys never collide with them
// because encoded keys are prefixed with "k:".
const (
	// LabelRoot marks the document element.
	LabelRoot = "json"
	// LabelItem marks an array element.
	LabelItem = "item"
	// KeyPrefix prefixes encoded object keys.
	KeyPrefix = "k:"
)

// Node is one element of the XML-style tree: a label, an optional text
// value, and an ordered list of children. Unlike jsontree, there is no
// keyed access — only ordered traversal, as in the XML data model.
type Node struct {
	Label    string
	Text     string // value of string leaves
	Num      uint64 // value of number leaves
	IsText   bool
	IsNum    bool
	Children []*Node
	parent   *Node
	sibling  int // index in parent's Children
}

// Parent returns the node's parent, or nil at the root.
func (n *Node) Parent() *Node { return n.parent }

// NextSibling returns the following sibling, or nil — the ordered
// traversal XML provides and JSON trees do not.
func (n *Node) NextSibling() *Node {
	if n.parent == nil || n.sibling+1 >= len(n.parent.Children) {
		return nil
	}
	return n.parent.Children[n.sibling+1]
}

// PrevSibling returns the preceding sibling, or nil.
func (n *Node) PrevSibling() *Node {
	if n.parent == nil || n.sibling == 0 {
		return nil
	}
	return n.parent.Children[n.sibling-1]
}

// Encode translates a JSON value into its XML-style encoding:
//
//   - an object becomes an element whose children are elements labelled
//     KeyPrefix+key, each wrapping the encoded member value;
//   - an array becomes an element whose children are LabelItem
//     elements in order;
//   - strings and numbers become text leaves.
//
// The root carries LabelRoot.
func Encode(v *jsonval.Value) *Node {
	root := encode(v, LabelRoot)
	return root
}

func encode(v *jsonval.Value, label string) *Node {
	n := &Node{Label: label}
	switch v.Kind() {
	case jsonval.String:
		n.IsText = true
		n.Text = v.Str()
	case jsonval.Number:
		n.IsNum = true
		n.Num = v.Num()
	case jsonval.Object:
		for _, m := range v.Members() {
			child := encode(m.Value, KeyPrefix+m.Key)
			child.parent = n
			child.sibling = len(n.Children)
			n.Children = append(n.Children, child)
		}
	case jsonval.Array:
		for _, e := range v.Elems() {
			child := encode(e, LabelItem)
			child.parent = n
			child.sibling = len(n.Children)
			n.Children = append(n.Children, child)
		}
	}
	return n
}

// Decode inverts Encode. It reports an error when the tree does not
// follow the encoding's labelling discipline — which is the paper's
// point: arbitrary XML does not round-trip into JSON.
func Decode(n *Node) (*jsonval.Value, error) {
	switch {
	case n.IsText:
		return jsonval.Str(n.Text), nil
	case n.IsNum:
		return jsonval.Num(n.Num), nil
	case len(n.Children) == 0:
		// Ambiguous: an empty element decodes as the empty object,
		// matching Encode of {} (Encode of [] also lands here; the
		// encoding is lossy on empty containers, another §3.2 wart).
		return jsonval.MustObj(), nil
	case strings.HasPrefix(n.Children[0].Label, KeyPrefix):
		members := make([]jsonval.Member, 0, len(n.Children))
		for _, c := range n.Children {
			if !strings.HasPrefix(c.Label, KeyPrefix) {
				return nil, fmt.Errorf("xmlenc: mixed key and item children under %q", n.Label)
			}
			v, err := Decode(c)
			if err != nil {
				return nil, err
			}
			members = append(members, jsonval.Member{Key: strings.TrimPrefix(c.Label, KeyPrefix), Value: v})
		}
		obj, err := jsonval.Obj(members...)
		if err != nil {
			return nil, fmt.Errorf("xmlenc: %w", err)
		}
		return obj, nil
	default:
		elems := make([]*jsonval.Value, 0, len(n.Children))
		for _, c := range n.Children {
			if c.Label != LabelItem {
				return nil, fmt.Errorf("xmlenc: mixed key and item children under %q", n.Label)
			}
			v, err := Decode(c)
			if err != nil {
				return nil, err
			}
			elems = append(elems, v)
		}
		return jsonval.Arr(elems...), nil
	}
}

// ChildByKeyScan retrieves the value element under a key the way an
// XML processor must: a linear scan of the children comparing labels.
// This is the §3.2 cost the benchmarks measure against
// jsontree.Tree.ChildByKey.
func (n *Node) ChildByKeyScan(key string) *Node {
	want := KeyPrefix + key
	for _, c := range n.Children {
		if c.Label == want {
			return c
		}
	}
	return nil
}

// ChildAt returns the i-th child (array access is positional in both
// models).
func (n *Node) ChildAt(i int) *Node {
	if i < 0 || i >= len(n.Children) {
		return nil
	}
	return n.Children[i]
}

// Size returns the number of nodes in the subtree.
func (n *Node) Size() int {
	s := 1
	for _, c := range n.Children {
		s += c.Size()
	}
	return s
}

// WriteXML renders the tree as XML text with minimal escaping — enough
// to eyeball the encoding in examples and docs.
func (n *Node) WriteXML(sb *strings.Builder, indent string) {
	n.writeXML(sb, indent, 0)
}

// XML returns the XML text of the subtree.
func (n *Node) XML() string {
	var sb strings.Builder
	n.WriteXML(&sb, "  ")
	return sb.String()
}

func (n *Node) writeXML(sb *strings.Builder, indent string, depth int) {
	pad := strings.Repeat(indent, depth)
	tag := xmlName(n.Label)
	switch {
	case n.IsText:
		fmt.Fprintf(sb, "%s<%s>%s</%s>\n", pad, tag, xmlEscape(n.Text), tag)
	case n.IsNum:
		fmt.Fprintf(sb, "%s<%s>%d</%s>\n", pad, tag, n.Num, tag)
	case len(n.Children) == 0:
		fmt.Fprintf(sb, "%s<%s/>\n", pad, tag)
	default:
		fmt.Fprintf(sb, "%s<%s>\n", pad, tag)
		for _, c := range n.Children {
			c.writeXML(sb, indent, depth+1)
		}
		fmt.Fprintf(sb, "%s</%s>\n", pad, tag)
	}
}

// xmlName makes a label usable as an element name: the "k:" prefix
// becomes "key-" and characters outside [A-Za-z0-9_-] are hex-escaped.
func xmlName(label string) string {
	label = strings.Replace(label, KeyPrefix, "key-", 1)
	var sb strings.Builder
	for _, r := range label {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
			sb.WriteRune(r)
		default:
			fmt.Fprintf(&sb, "_%04x", r)
		}
	}
	if sb.Len() == 0 {
		return "_"
	}
	return sb.String()
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}
