package corpus

import (
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// DecodeCollections decodes a JSON array of collections — the shape of a
// journal record — without reflection. It is a strict fast path: it
// accepts only a canonical subset of JSON, on which its result equals what
// json.Unmarshal into []*Collection yields, and declines (ok false)
// everything else. A caller decodes a declined input with encoding/json,
// which then also produces the error message.
//
// The canonical subset: whitespace between tokens; the exact lower-case
// keys "name", "docs", "num_personas", "id", "url", "text" and
// "persona_id", each at most once per object and spelled without escapes
// (encoding/json also matches other spellings case-insensitively, skips
// unknown keys and lets the last duplicate win); strings of valid UTF-8
// without raw control bytes, with the escapes \" \\ \/ \b \f \n \r \t and
// \uXXXX, surrogates only as valid pairs (encoding/json replaces a lone one
// with U+FFFD); integers -?(0|[1-9][0-9]*) of at most 18 digits; no null,
// no fraction or exponent; nothing but whitespace after the value. An
// empty array decodes as an empty slice and a missing "docs" as nil, as
// with encoding/json.
//
// The input is converted to one string once, and every string value
// without escapes is a substring of it: the decoded documents share that
// backing and keep it alive while any of them lives.
func DecodeCollections(data []byte) ([]*Collection, bool) {
	d := decoder{s: string(data)}
	cols, ok := d.collections()
	if !ok || !d.end() {
		return nil, false
	}
	return cols, true
}

// DecodeCollectionsObject decodes {"collections": [...]}, the body of POST
// /v1/collections, under DecodeCollections' contract: its result equals
// the Collections field json.Unmarshal fills in a struct whose one field is
// `json:"collections"`. An object without the key decodes as nil; any other
// key declines.
func DecodeCollectionsObject(data []byte) ([]*Collection, bool) {
	d := decoder{s: string(data)}
	if !d.consume('{') {
		return nil, false
	}
	var cols []*Collection
	for first, seen := true, false; ; first = false {
		key, done, ok := d.key(first)
		if !ok || (!done && (key != "collections" || seen)) {
			return nil, false
		}
		if done {
			if !d.end() {
				return nil, false
			}
			return cols, true
		}
		seen = true
		if cols, ok = d.collections(); !ok {
			return nil, false
		}
	}
}

// decoder reads the canonical subset from s, advancing pos. Every method
// answers false when the input leaves the subset; the public entry points
// then decline.
type decoder struct {
	s   string
	pos int
}

// space skips JSON whitespace.
func (d *decoder) space() {
	for d.pos < len(d.s) {
		switch d.s[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// consume skips whitespace and then the byte c, if it is next.
func (d *decoder) consume(c byte) bool {
	d.space()
	if d.pos < len(d.s) && d.s[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (d *decoder) end() bool {
	d.space()
	return d.pos == len(d.s)
}

// key reads the next member of an object whose '{' is consumed, up to and
// including its colon; done is true at the closing '}'. Keys are accepted
// only unescaped, and the caller matches them exactly.
func (d *decoder) key(first bool) (key string, done, ok bool) {
	if d.consume('}') {
		return "", true, true
	}
	if !first && !d.consume(',') {
		return "", false, false
	}
	if !d.consume('"') {
		return "", false, false
	}
	end := strings.IndexByte(d.s[d.pos:], '"')
	if end < 0 {
		return "", false, false
	}
	key = d.s[d.pos : d.pos+end]
	if strings.IndexByte(key, '\\') >= 0 {
		return "", false, false
	}
	d.pos += end + 1
	return key, false, d.consume(':')
}

// element reports whether another array element follows; at the closing
// ']', which it consumes, more is false.
func (d *decoder) element(first bool) (more, ok bool) {
	if d.consume(']') {
		return false, true
	}
	return true, first || d.consume(',')
}

// collections reads an array of collection objects. An empty array is an
// empty slice, never nil.
func (d *decoder) collections() ([]*Collection, bool) {
	if !d.consume('[') {
		return nil, false
	}
	cols := []*Collection{}
	for first := true; ; first = false {
		more, ok := d.element(first)
		if !ok {
			return nil, false
		}
		if !more {
			return cols, true
		}
		c := &Collection{}
		if !d.collection(c) {
			return nil, false
		}
		cols = append(cols, c)
	}
}

// collection reads one collection object.
func (d *decoder) collection(c *Collection) bool {
	if !d.consume('{') {
		return false
	}
	var seen uint8
	for first := true; ; first = false {
		key, done, ok := d.key(first)
		if !ok {
			return false
		}
		if done {
			return true
		}
		var bit uint8
		switch key {
		case "name":
			bit = 1
			c.Name, ok = d.str()
		case "docs":
			bit = 2
			c.Docs, ok = d.documents()
		case "num_personas":
			bit = 4
			c.NumPersonas, ok = d.integer()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
}

// documents reads an array of document objects. An empty array is an
// empty slice, never nil.
func (d *decoder) documents() ([]Document, bool) {
	if !d.consume('[') {
		return nil, false
	}
	docs := []Document{}
	for first := true; ; first = false {
		more, ok := d.element(first)
		if !ok {
			return nil, false
		}
		if !more {
			return docs, true
		}
		docs = append(docs, Document{})
		if !d.document(&docs[len(docs)-1]) {
			return nil, false
		}
	}
}

// document reads one document object.
func (d *decoder) document(doc *Document) bool {
	if !d.consume('{') {
		return false
	}
	var seen uint8
	for first := true; ; first = false {
		key, done, ok := d.key(first)
		if !ok {
			return false
		}
		if done {
			return true
		}
		var bit uint8
		switch key {
		case "id":
			bit = 1
			doc.ID, ok = d.integer()
		case "url":
			bit = 2
			doc.URL, ok = d.str()
		case "text":
			bit = 4
			doc.Text, ok = d.str()
		case "persona_id":
			bit = 8
			doc.PersonaID, ok = d.integer()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
}

// maxDigits bounds an accepted integer's digits, so it fits an int64
// without an overflow check.
const maxDigits = 18

// integer reads an integer in place.
func (d *decoder) integer() (int, bool) {
	d.space()
	s, i := d.s, d.pos
	neg := i < len(s) && s[i] == '-'
	if neg {
		i++
	}
	start := i
	var v int64
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		v = v*10 + int64(s[i]-'0')
		i++
	}
	digits := i - start
	if digits == 0 || digits > maxDigits || (digits > 1 && s[start] == '0') {
		return 0, false
	}
	if neg {
		v = -v
	}
	if int64(int(v)) != v {
		return 0, false // beyond a 32-bit int
	}
	d.pos = i
	return int(v), true
}

// plain marks the bytes a string holds as they are: printable ASCII but
// the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str reads a string: a substring of the input when it has no escapes.
func (d *decoder) str() (string, bool) {
	if !d.consume('"') {
		return "", false
	}
	s, start := d.s, d.pos
	i, ok := scanPlain(s, start)
	if !ok {
		return "", false
	}
	if s[i] == '"' {
		d.pos = i + 1
		return s[start:i], true
	}
	return d.unescape(start, i)
}

// scanPlain advances from i over unescaped string content — printable
// ASCII and valid UTF-8 — to the next quote or backslash; false when the
// input ends first or holds a raw control byte or invalid UTF-8.
func scanPlain(s string, i int) (int, bool) {
	for i < len(s) {
		c := s[i]
		switch {
		case plain[c]:
			i++
		case c == '"' || c == '\\':
			return i, true
		case c < utf8.RuneSelf:
			return i, false // a raw control byte
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				return i, false
			}
			i += size
		}
	}
	return i, false
}

// unescape finishes, into a new string, a string that began at start and
// whose first backslash is at i.
func (d *decoder) unescape(start, i int) (string, bool) {
	s := d.s
	buf := make([]byte, 0, i-start+16)
	buf = append(buf, s[start:i]...)
	for {
		if s[i] == '"' {
			d.pos = i + 1
			return string(buf), true
		}
		// s[i] is a backslash.
		if i+1 >= len(s) {
			return "", false
		}
		switch c := s[i+1]; c {
		case '"', '\\', '/':
			buf = append(buf, c)
		case 'b':
			buf = append(buf, '\b')
		case 'f':
			buf = append(buf, '\f')
		case 'n':
			buf = append(buf, '\n')
		case 'r':
			buf = append(buf, '\r')
		case 't':
			buf = append(buf, '\t')
		case 'u':
			r, ok := hex4(s, i+2)
			if !ok {
				return "", false
			}
			if utf16.IsSurrogate(r) {
				// Only a high surrogate escaped right before a low one.
				lo, ok := rune(0), i+12 <= len(s) && s[i+6] == '\\' && s[i+7] == 'u'
				if ok {
					lo, ok = hex4(s, i+8)
				}
				if r = utf16.DecodeRune(r, lo); !ok || r == utf8.RuneError {
					return "", false
				}
				i += 6
			}
			buf = utf8.AppendRune(buf, r)
			i += 4
		default:
			return "", false
		}
		i += 2
		next, ok := scanPlain(s, i)
		if !ok {
			return "", false
		}
		buf = append(buf, s[i:next]...)
		i = next
	}
}

// hex4 parses the four hex digits at s[i:].
func hex4(s string, i int) (rune, bool) {
	if i+4 > len(s) {
		return 0, false
	}
	var r rune
	for _, c := range []byte(s[i : i+4]) {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}
