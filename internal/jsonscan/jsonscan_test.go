package jsonscan

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"wolves/internal/jsonscan/jsonscantest"
)

// shape exercises every primitive; decodeShape is its scanner decoder,
// written the way callers write theirs.
type shape struct {
	S string
	U uint64
	L []struct{ A string }
	F [2]string
	R json.RawMessage
}

func decodeShape(d *Decoder, s *shape) error {
	elem := func(el *struct{ A string }) error {
		return d.Object(func(key []byte) error {
			if FoldEq(key, "A") {
				return d.String(&el.A)
			}
			return d.Skip()
		})
	}
	return d.Object(func(key []byte) error {
		switch {
		case FoldEq(key, "S"):
			return d.String(&s.S)
		case FoldEq(key, "U"):
			return d.Uint64(&s.U)
		case FoldEq(key, "L"):
			return Array(d, &s.L, elem)
		case FoldEq(key, "F"):
			return Fixed(d, s.F[:], d.String)
		case FoldEq(key, "R"):
			return d.Raw((*[]byte)(&s.R))
		}
		return d.Skip()
	})
}

func shapeEquiv(t *testing.T, data []byte) {
	t.Helper()
	var want, got shape
	werr := json.Unmarshal(data, &want)
	var d Decoder
	d.Reset(data)
	gerr := decodeShape(&d, &got)
	if gerr == nil {
		gerr = d.End()
	}
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("acceptance diverges on %q:\n  encoding/json: %v\n  jsonscan:      %v", data, werr, gerr)
	}
	if werr == nil && !reflect.DeepEqual(want, got) {
		t.Fatalf("value diverges on %q:\n  encoding/json: %+v\n  jsonscan:      %+v", data, want, got)
	}
}

var shapeSeeds = []string{
	`{"s":"x","u":7,"l":[{"a":"1"},null,{"a":"2","b":[]}],"f":["p","q"],"r":{"k":[1,"2",null]}}`,
	`{"F":["p"]}`,
	`{"f":[]}`,
	`{"f":["p","q","r",{"x":[1]},5]}`,
	`{"f":["p",null]}`,
	`{"f":["p","q"],"f":["r"]}`,
	`{"f":null}`,
	`{"f":[1]}`,
	`{"f":"pq"}`,
	`{"r":null}`,
	`{"r":"s","R":[1 , 2]}`,
	`{"l":[{"a":"1"},{"a":"2"},{"a":"3"}],"l":[{}],"l":[{},{},{},{"a":"4"}]}`,
	`{"l":[{"a":"1"}],"l":[],"l":[{}]}`,
	`{"l":[{"a":"1"}],"l":null,"l":[{}]}`,
	`{"l":{}}`,
	`{"u":-0}`,
	`{"u":1E2}`,
	`{"s":"\ud800\udc00\udc00"}`,
	`{"ſ":"long s folds to S"}`,
}

func TestScannerMatchesEncodingJSON(t *testing.T) {
	for _, s := range append(append([]string(nil), jsonscantest.Seeds...), shapeSeeds...) {
		shapeEquiv(t, []byte(s))
	}
	deep := func(n int) []byte {
		return []byte(`{"r":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`)
	}
	shapeEquiv(t, deep(MaxDepth-1))
	shapeEquiv(t, deep(MaxDepth))
}

// TestBytesAliasing pins Bytes' contract: a clean string aliases the
// input, an escaped one is a private copy that survives later decodes
// on the same decoder.
func TestBytesAliasing(t *testing.T) {
	in := []byte(`["plain","esc\u0061ped","caf\u00e9"]`)
	var d Decoder
	d.Reset(in)
	var got [][]byte
	if err := Array(&d, &got, d.Bytes); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || &got[0][0] != &in[2] {
		t.Fatalf("clean string not aliased: %q", got)
	}
	d.Reset([]byte(`"\u0078\u0078\u0078\u0078\u0078\u0078\u0078\u0078\u0078"`))
	var s string
	if err := d.String(&s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[1], []byte("escaped")) || string(got[2]) != "café" {
		t.Fatalf("escaped strings clobbered by a later decode: %q", got)
	}
}

// FuzzScannerMatchesEncodingJSON differentially fuzzes the primitives
// against encoding/json on a shape that uses each of them.
func FuzzScannerMatchesEncodingJSON(f *testing.F) {
	for _, s := range jsonscantest.Seeds {
		f.Add([]byte(s))
	}
	for _, s := range shapeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(shapeEquiv)
}
