package corpus

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// requestShape is the object form's encoding/json reference: the one field
// of the /v1/collections body.
type requestShape struct {
	Collections []*Collection `json:"collections"`
}

// benchBodies returns n request bodies of one generated collection of
// docs documents each, marshalled as clients send them.
func benchBodies(tb testing.TB, n, docs int) [][]byte {
	tb.Helper()
	bodies := make([][]byte, n)
	for i := range bodies {
		col, err := GenerateCollection(CollectionConfig{
			Name: fmt.Sprintf("name%03d", i), NumDocs: docs, NumPersonas: 4,
			Noise: 0.3, MissingInfo: 0.2, Spurious: 0.2, Seed: int64(i),
		})
		if err != nil {
			tb.Fatal(err)
		}
		if bodies[i], err = json.Marshal(requestShape{[]*Collection{col}}); err != nil {
			tb.Fatal(err)
		}
	}
	return bodies
}

// esc spells the JSON escape of one UTF-16 code unit, given in hex.
func esc(hex string) string { return `\` + "u" + hex }

// decodeSeed is one edge case in the object form; its array form is the
// value of "collections". accept says whether the fast path takes it.
type decodeSeed struct {
	name   string
	body   string
	accept bool
}

var decodeSeeds = []decodeSeed{
	{"minimal", `{"collections":[{"name":"smith","docs":[{"id":0,"url":"http://a/0","text":"alpha","persona_id":0}],"num_personas":1}]}`, true},
	{"spaced", " {\n \"collections\" : [ { \"num_personas\" : 2 , \"name\" : \"x\" } ] } \n\t", true},
	{"empty docs", `{"collections":[{"name":"a","docs":[],"num_personas":0}]}`, true},
	{"no docs", `{"collections":[{"name":"a","num_personas":0}]}`, true},
	{"empty", `{"collections":[]}`, true},
	{"no key", `{}`, true},
	{"escapes", `{"collections":[{"name":"a\"\\\/\b\f\n\r\t` + esc("00e9") + esc("4E2D") + `","docs":[{"text":"x` +
		esc("003c") + "y" + esc("0026") + "z" + esc("2028") + `"}]}]}`, true},
	{"surrogate pair", `{"collections":[{"name":"` + esc("d83d") + esc("de00") + ` ok"}]}`, true},
	{"raw utf8", `{"collections":[{"name":"café 中 ok"}]}`, true},
	{"negatives", `{"collections":[{"name":"a","num_personas":-0,"docs":[{"id":-5,"persona_id":999999999999999999}]}]}`, true},
	{"lone high surrogate", `{"collections":[{"name":"` + esc("d800") + `"}]}`, false},
	{"lone low surrogate", `{"collections":[{"name":"` + esc("dc00") + `x"}]}`, false},
	{"high then non-low", `{"collections":[{"name":"` + esc("d800") + esc("0041") + `"}]}`, false},
	{"invalid utf8", "{\"collections\":[{\"name\":\"\xff\"}]}", false},
	{"encoded surrogate", "{\"collections\":[{\"name\":\"\xed\xa0\x80\"}]}", false},
	{"raw control", "{\"collections\":[{\"name\":\"a\x01\"}]}", false},
	{"upper key", `{"Collections":[]}`, false},
	{"upper doc key", `{"collections":[{"docs":[{"TEXT":"x"}]}]}`, false},
	{"escaped key", `{"collections":[{"n` + esc("0061") + `me":"x"}]}`, false},
	{"unknown key", `{"collections":[{"name":"a","label":"x"}]}`, false},
	{"duplicate key", `{"collections":[{"name":"a","name":"b"}]}`, false},
	{"duplicate collections", `{"collections":[],"collections":[]}`, false},
	{"null collections", `{"collections":null}`, false},
	{"null element", `{"collections":[null]}`, false},
	{"null string", `{"collections":[{"name":null}]}`, false},
	{"exponent", `{"collections":[{"num_personas":1e2}]}`, false},
	{"fraction", `{"collections":[{"num_personas":1.0}]}`, false},
	{"leading zero", `{"collections":[{"num_personas":01}]}`, false},
	{"19 digits", `{"collections":[{"num_personas":1234567890123456789}]}`, false},
	{"string for int", `{"collections":[{"num_personas":"1"}]}`, false},
	{"int for string", `{"collections":[{"name":1}]}`, false},
	{"bad escape", `{"collections":[{"name":"\x"}]}`, false},
	{"trailing comma", `{"collections":[{"name":"a"},]}`, false},
	{"trailing garbage", `{"collections":[]}x`, false},
	{"trailing value", `{"collections":[]}{}`, false},
	{"truncated", `{"collections":[{"name":"a"`, false},
	{"not json", `not json at all`, false},
}

// arrayForm extracts the array form of an object-form seed: the value of
// "collections", or the whole body when it has no such simple shape.
func arrayForm(body string) string {
	const prefix = `{"collections":`
	if len(body) > len(prefix) && body[:len(prefix)] == prefix && body[len(body)-1] == '}' {
		return body[len(prefix) : len(body)-1]
	}
	return body
}

// checkDecode is the differential property: whatever the fast path
// accepts, encoding/json decodes without error to a deep-equal value (nil
// and empty slices told apart); whatever encoding/json rejects, the fast
// path declines. It reports whether each form was accepted.
func checkDecode(t *testing.T, data []byte) (arrayOK, objectOK bool) {
	t.Helper()
	got, arrayOK := DecodeCollections(data)
	var want []*Collection
	if err := json.Unmarshal(data, &want); err != nil && arrayOK {
		t.Fatalf("array form accepted %q, which encoding/json rejects: %v", data, err)
	}
	if arrayOK && !reflect.DeepEqual(got, want) {
		t.Fatalf("array form of %q: fast path %#v, encoding/json %#v", data, got, want)
	}

	gotObj, objectOK := DecodeCollectionsObject(data)
	var wantObj requestShape
	if err := json.Unmarshal(data, &wantObj); err != nil && objectOK {
		t.Fatalf("object form accepted %q, which encoding/json rejects: %v", data, err)
	}
	if objectOK && !reflect.DeepEqual(gotObj, wantObj.Collections) {
		t.Fatalf("object form of %q: fast path %#v, encoding/json %#v", data, gotObj, wantObj.Collections)
	}
	return arrayOK, objectOK
}

// TestDecodeCollectionsSeeds pins which edge cases the fast path takes and
// which it leaves to encoding/json, in both forms, and that a marshalled
// request body and journal record take the fast path.
func TestDecodeCollectionsSeeds(t *testing.T) {
	for _, s := range decodeSeeds {
		t.Run(s.name, func(t *testing.T) {
			if _, obj := checkDecode(t, []byte(s.body)); obj != s.accept {
				t.Errorf("object form accepted = %v, want %v", obj, s.accept)
			}
			if arr := arrayForm(s.body); arr != s.body {
				if ok, _ := checkDecode(t, []byte(arr)); ok != s.accept {
					t.Errorf("array form accepted = %v, want %v", ok, s.accept)
				}
			}
		})
	}
	body := benchBodies(t, 1, 40)[0]
	if _, ok := checkDecode(t, body); !ok {
		t.Error("the fast path declines a marshalled request body")
	}
	record, err := json.Marshal([]*Collection{{Name: "<a&b>", Docs: []Document{{Text: "x < y && z > w  "}}}})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := checkDecode(t, record); !ok {
		t.Errorf("the fast path declines the journal record %s", record)
	}
}

// FuzzDecodeCollections is the differential fuzzer of the fast path
// against encoding/json (checkDecode), over both forms.
func FuzzDecodeCollections(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s.body))
		f.Add([]byte(arrayForm(s.body)))
	}
	body := benchBodies(f, 1, 4)[0]
	f.Add(body)
	f.Add([]byte(arrayForm(string(body))))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
	})
}

// BenchmarkDecodeCollections prices the fast path against encoding/json on
// a 150 × 40 generated corpus, one request body per collection: MB/s and
// allocations are per pass over all 150 bodies.
func BenchmarkDecodeCollections(b *testing.B) {
	bodies := benchBodies(b, 150, 40)
	total := 0
	for _, body := range bodies {
		total += len(body)
	}
	b.Run("encoding_json", func(b *testing.B) {
		b.SetBytes(int64(total))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, body := range bodies {
				var req requestShape
				if err := json.Unmarshal(body, &req); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("fast", func(b *testing.B) {
		b.SetBytes(int64(total))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, body := range bodies {
				if _, ok := DecodeCollectionsObject(body); !ok {
					b.Fatal("declined a generated body")
				}
			}
		}
	})
}
