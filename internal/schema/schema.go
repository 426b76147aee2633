// Package schema implements the JSON Schema core fragment of §5.1 of the
// paper (Table 1): string, number, object and array schemas, boolean
// combinations (allOf/anyOf/not/enum), and the recursive
// definitions/$ref mechanism of §5.3. Schemas are parsed from JSON
// values, validated directly, serialized back to JSON, and translated to
// and from the JSON Schema Logic (Theorems 1 and 3).
//
// Two semantic choices follow the paper's appendix rather than JSON
// Schema draft 4, so that Theorem 1's translation to JSL is exact:
//
//  1. "items": [J1,…,Jn] requires the array to contain elements at all
//     positions 1…n (Theorem 1's translation uses ◇ modalities), and
//     forbids further elements unless "additionalItems" is present.
//  2. "minimum"/"maximum" are inclusive, matching our inclusive Min/Max
//     node tests.
package schema

import (
	"fmt"
	"strings"

	"jsonlogic/internal/jsonval"
	"jsonlogic/internal/relang"
)

// Schema is a parsed JSON Schema document (the core fragment of Table
// 1). Nil pointer and empty slice fields mean "keyword absent". The zero
// value is the empty schema {} that validates every document.
type Schema struct {
	// Type is "", "string", "number", "object" or "array".
	Type string

	// String keywords.
	Pattern *relang.Regex

	// Number keywords.
	Minimum    *uint64
	Maximum    *uint64
	MultipleOf *uint64

	// Object keywords.
	MinProperties        *int
	MaxProperties        *int
	Required             []string
	Properties           []Property
	PatternProperties    []PatternProperty
	AdditionalProperties *Schema

	// Array keywords.
	Items           []*Schema
	AdditionalItems *Schema
	UniqueItems     bool

	// Boolean combinations and comparisons.
	AllOf []*Schema
	AnyOf []*Schema
	Not   *Schema
	Enum  []*jsonval.Value

	// Recursion (§5.3): a reference "#/definitions/<name>" and the root
	// definitions section.
	Ref         string
	Definitions []Definition
}

// Property is one entry of a "properties" object.
type Property struct {
	Key    string
	Schema *Schema
}

// PatternProperty is one entry of a "patternProperties" object.
type PatternProperty struct {
	Pattern *relang.Regex
	Schema  *Schema
}

// Definition is one entry of the root "definitions" section.
type Definition struct {
	Name   string
	Schema *Schema
}

// ParseError reports a malformed schema document.
type ParseError struct {
	Path string
	Msg  string
}

func (e *ParseError) Error() string {
	if e.Path == "" {
		return "schema: " + e.Msg
	}
	return fmt.Sprintf("schema: at %s: %s", e.Path, e.Msg)
}

// Parse parses a schema from JSON text.
func Parse(input string) (*Schema, error) {
	v, err := jsonval.Parse(input)
	if err != nil {
		return nil, err
	}
	return FromValue(v)
}

// MustParse is Parse but panics on error.
func MustParse(input string) *Schema {
	s, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return s
}

// FromValue parses a schema from a JSON value. Unknown keywords are
// rejected so that typos surface as errors rather than silently
// accepting everything (the behaviour the formalization [29] assumes a
// closed keyword set for).
func FromValue(v *jsonval.Value) (*Schema, error) {
	return parseSchema(v, "$")
}

func errf(path, format string, args ...any) error {
	return &ParseError{Path: path, Msg: fmt.Sprintf(format, args...)}
}

func parseSchema(v *jsonval.Value, path string) (*Schema, error) {
	if !v.IsObject() {
		return nil, errf(path, "a schema must be an object, got %s", v.Kind())
	}
	s := &Schema{}
	for _, m := range v.Members() {
		kv := m.Value
		kpath := path + "." + m.Key
		switch m.Key {
		case "type":
			if !kv.IsString() {
				return nil, errf(kpath, "type must be a string")
			}
			switch kv.Str() {
			case "string", "number", "object", "array":
				s.Type = kv.Str()
			default:
				return nil, errf(kpath, "unsupported type %q (the paper's model has objects, arrays, strings and numbers)", kv.Str())
			}
		case "pattern":
			re, err := parsePattern(kv, kpath)
			if err != nil {
				return nil, err
			}
			s.Pattern = re
		case "minimum":
			n, err := parseNat(kv, kpath)
			if err != nil {
				return nil, err
			}
			s.Minimum = &n
		case "maximum":
			n, err := parseNat(kv, kpath)
			if err != nil {
				return nil, err
			}
			s.Maximum = &n
		case "multipleOf":
			n, err := parseNat(kv, kpath)
			if err != nil {
				return nil, err
			}
			s.MultipleOf = &n
		case "minProperties":
			n, err := parseNat(kv, kpath)
			if err != nil {
				return nil, err
			}
			i := int(n)
			s.MinProperties = &i
		case "maxProperties":
			n, err := parseNat(kv, kpath)
			if err != nil {
				return nil, err
			}
			i := int(n)
			s.MaxProperties = &i
		case "required":
			if !kv.IsArray() {
				return nil, errf(kpath, "required must be an array of strings")
			}
			for i, e := range kv.Elems() {
				if !e.IsString() {
					return nil, errf(kpath, "required[%d] must be a string", i)
				}
				s.Required = append(s.Required, e.Str())
			}
		case "properties":
			if !kv.IsObject() {
				return nil, errf(kpath, "properties must be an object")
			}
			for _, pm := range kv.Members() {
				sub, err := parseSchema(pm.Value, kpath+"."+pm.Key)
				if err != nil {
					return nil, err
				}
				s.Properties = append(s.Properties, Property{Key: pm.Key, Schema: sub})
			}
		case "patternProperties":
			if !kv.IsObject() {
				return nil, errf(kpath, "patternProperties must be an object")
			}
			for _, pm := range kv.Members() {
				re, err := relang.Compile(pm.Key)
				if err != nil {
					return nil, errf(kpath, "bad pattern %q: %v", pm.Key, err)
				}
				sub, err := parseSchema(pm.Value, kpath+"."+pm.Key)
				if err != nil {
					return nil, err
				}
				s.PatternProperties = append(s.PatternProperties, PatternProperty{Pattern: re, Schema: sub})
			}
		case "additionalProperties":
			sub, err := parseSchema(kv, kpath)
			if err != nil {
				return nil, err
			}
			s.AdditionalProperties = sub
		case "items":
			if !kv.IsArray() {
				return nil, errf(kpath, "items must be an array of schemas (the Table 1 fragment)")
			}
			for i, e := range kv.Elems() {
				sub, err := parseSchema(e, fmt.Sprintf("%s[%d]", kpath, i))
				if err != nil {
					return nil, err
				}
				s.Items = append(s.Items, sub)
			}
		case "additionalItems":
			sub, err := parseSchema(kv, kpath)
			if err != nil {
				return nil, err
			}
			s.AdditionalItems = sub
		case "uniqueItems":
			// The paper's fragment only has "uniqueItems": true; our
			// value model has no booleans, so the paper's convention is
			// encoded as the number 1 (and 0 for an explicit false).
			if !kv.IsNumber() || kv.Num() > 1 {
				return nil, errf(kpath, "uniqueItems must be 1 (true) or 0 (false) in the boolean-free value model")
			}
			s.UniqueItems = kv.Num() == 1
		case "allOf", "anyOf":
			if !kv.IsArray() || kv.Len() == 0 {
				return nil, errf(kpath, "%s must be a non-empty array of schemas", m.Key)
			}
			for i, e := range kv.Elems() {
				sub, err := parseSchema(e, fmt.Sprintf("%s[%d]", kpath, i))
				if err != nil {
					return nil, err
				}
				if m.Key == "allOf" {
					s.AllOf = append(s.AllOf, sub)
				} else {
					s.AnyOf = append(s.AnyOf, sub)
				}
			}
		case "not":
			sub, err := parseSchema(kv, kpath)
			if err != nil {
				return nil, err
			}
			s.Not = sub
		case "enum":
			if !kv.IsArray() || kv.Len() == 0 {
				return nil, errf(kpath, "enum must be a non-empty array")
			}
			s.Enum = append(s.Enum, kv.Elems()...)
		case "$ref":
			if !kv.IsString() || !strings.HasPrefix(kv.Str(), "#/definitions/") {
				return nil, errf(kpath, `$ref must be a string of the form "#/definitions/<name>"`)
			}
			s.Ref = strings.TrimPrefix(kv.Str(), "#/definitions/")
		case "definitions":
			if !kv.IsObject() {
				return nil, errf(kpath, "definitions must be an object")
			}
			for _, dm := range kv.Members() {
				sub, err := parseSchema(dm.Value, kpath+"."+dm.Key)
				if err != nil {
					return nil, err
				}
				s.Definitions = append(s.Definitions, Definition{Name: dm.Key, Schema: sub})
			}
		default:
			return nil, errf(kpath, "unknown keyword %q (Table 1 fragment)", m.Key)
		}
	}
	if err := s.checkKeywordTypes(path); err != nil {
		return nil, err
	}
	return s, nil
}

// checkKeywordTypes enforces Table 1's grouping: each typed keyword may
// only appear together with its "type" keyword. This keeps the direct
// validator and the Theorem 1 translation in exact agreement.
func (s *Schema) checkKeywordTypes(path string) error {
	requireType := func(want string, present bool, kw string) error {
		if present && s.Type != want {
			return errf(path, "keyword %q requires \"type\": %q (Table 1)", kw, want)
		}
		return nil
	}
	checks := []struct {
		want    string
		present bool
		kw      string
	}{
		{"string", s.Pattern != nil, "pattern"},
		{"number", s.Minimum != nil, "minimum"},
		{"number", s.Maximum != nil, "maximum"},
		{"number", s.MultipleOf != nil, "multipleOf"},
		{"object", s.MinProperties != nil, "minProperties"},
		{"object", s.MaxProperties != nil, "maxProperties"},
		{"object", len(s.Required) > 0, "required"},
		{"object", len(s.Properties) > 0, "properties"},
		{"object", len(s.PatternProperties) > 0, "patternProperties"},
		{"object", s.AdditionalProperties != nil, "additionalProperties"},
		{"array", len(s.Items) > 0, "items"},
		{"array", s.AdditionalItems != nil, "additionalItems"},
		{"array", s.UniqueItems, "uniqueItems"},
	}
	for _, c := range checks {
		if err := requireType(c.want, c.present, c.kw); err != nil {
			return err
		}
	}
	return nil
}

func parsePattern(v *jsonval.Value, path string) (*relang.Regex, error) {
	if !v.IsString() {
		return nil, errf(path, "pattern must be a string")
	}
	re, err := relang.Compile(v.Str())
	if err != nil {
		return nil, errf(path, "bad pattern: %v", err)
	}
	return re, nil
}

func parseNat(v *jsonval.Value, path string) (uint64, error) {
	if !v.IsNumber() {
		return 0, errf(path, "want a natural number")
	}
	return v.Num(), nil
}

// ToValue serializes the schema back to a JSON value. Parsing the result
// yields an equivalent schema.
func (s *Schema) ToValue() *jsonval.Value {
	var members []jsonval.Member
	add := func(key string, v *jsonval.Value) {
		members = append(members, jsonval.Member{Key: key, Value: v})
	}
	if s.Type != "" {
		add("type", jsonval.Str(s.Type))
	}
	if s.Pattern != nil {
		add("pattern", jsonval.Str(s.Pattern.String()))
	}
	if s.Minimum != nil {
		add("minimum", jsonval.Num(*s.Minimum))
	}
	if s.Maximum != nil {
		add("maximum", jsonval.Num(*s.Maximum))
	}
	if s.MultipleOf != nil {
		add("multipleOf", jsonval.Num(*s.MultipleOf))
	}
	if s.MinProperties != nil {
		add("minProperties", jsonval.Num(uint64(*s.MinProperties)))
	}
	if s.MaxProperties != nil {
		add("maxProperties", jsonval.Num(uint64(*s.MaxProperties)))
	}
	if len(s.Required) > 0 {
		elems := make([]*jsonval.Value, len(s.Required))
		for i, k := range s.Required {
			elems[i] = jsonval.Str(k)
		}
		add("required", jsonval.Arr(elems...))
	}
	if len(s.Properties) > 0 {
		var props []jsonval.Member
		for _, p := range s.Properties {
			props = append(props, jsonval.Member{Key: p.Key, Value: p.Schema.ToValue()})
		}
		add("properties", jsonval.MustObj(props...))
	}
	if len(s.PatternProperties) > 0 {
		var props []jsonval.Member
		for _, p := range s.PatternProperties {
			props = append(props, jsonval.Member{Key: p.Pattern.String(), Value: p.Schema.ToValue()})
		}
		add("patternProperties", jsonval.MustObj(props...))
	}
	if s.AdditionalProperties != nil {
		add("additionalProperties", s.AdditionalProperties.ToValue())
	}
	if len(s.Items) > 0 {
		elems := make([]*jsonval.Value, len(s.Items))
		for i, it := range s.Items {
			elems[i] = it.ToValue()
		}
		add("items", jsonval.Arr(elems...))
	}
	if s.AdditionalItems != nil {
		add("additionalItems", s.AdditionalItems.ToValue())
	}
	if s.UniqueItems {
		add("uniqueItems", jsonval.Num(1))
	}
	if len(s.AllOf) > 0 {
		elems := make([]*jsonval.Value, len(s.AllOf))
		for i, sub := range s.AllOf {
			elems[i] = sub.ToValue()
		}
		add("allOf", jsonval.Arr(elems...))
	}
	if len(s.AnyOf) > 0 {
		elems := make([]*jsonval.Value, len(s.AnyOf))
		for i, sub := range s.AnyOf {
			elems[i] = sub.ToValue()
		}
		add("anyOf", jsonval.Arr(elems...))
	}
	if s.Not != nil {
		add("not", s.Not.ToValue())
	}
	if len(s.Enum) > 0 {
		add("enum", jsonval.Arr(s.Enum...))
	}
	if s.Ref != "" {
		add("$ref", jsonval.Str("#/definitions/"+s.Ref))
	}
	if len(s.Definitions) > 0 {
		var defs []jsonval.Member
		for _, d := range s.Definitions {
			defs = append(defs, jsonval.Member{Key: d.Name, Value: d.Schema.ToValue()})
		}
		add("definitions", jsonval.MustObj(defs...))
	}
	return jsonval.MustObj(members...)
}

// String returns the schema as compact JSON.
func (s *Schema) String() string { return s.ToValue().String() }

// definition lookup by name.
func (s *Schema) definition(name string) (*Schema, bool) {
	for _, d := range s.Definitions {
		if d.Name == name {
			return d.Schema, true
		}
	}
	return nil, false
}
