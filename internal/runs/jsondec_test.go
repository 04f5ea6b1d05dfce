package runs

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"wolves/internal/jsonscan"
	"wolves/internal/jsonscan/jsonscantest"
)

// decodeEquiv decodes data with both decoders (encoding/json and the
// hand-rolled one) into both wire shapes and fails unless acceptance
// and the decoded values agree exactly.
func decodeEquiv(t *testing.T, data []byte) {
	t.Helper()

	var want, got wireRun
	werr := json.Unmarshal(data, &want)
	var d jsonscan.Decoder
	gerr := decodeRunDocJSON(&d, &got, data)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("wireRun acceptance diverges on %q:\n  encoding/json: %v\n  scan:          %v", data, werr, gerr)
	}
	if werr == nil && !reflect.DeepEqual(want, got) {
		t.Fatalf("wireRun value diverges on %q:\n  encoding/json: %+v\n  scan:          %+v", data, want, got)
	}

	var wantL, gotL wireLine
	wlerr := json.Unmarshal(data, &wantL)
	glerr := decodeWireLineJSON(&d, &gotL, data, nil)
	if (wlerr == nil) != (glerr == nil) {
		t.Fatalf("wireLine acceptance diverges on %q:\n  encoding/json: %v\n  scan:          %v", data, wlerr, glerr)
	}
	if wlerr == nil && !reflect.DeepEqual(wantL, gotL) {
		t.Fatalf("wireLine value diverges on %q:\n  encoding/json: %+v\n  scan:          %+v", data, wantL, gotL)
	}
}

func TestJSONDecodeEquivalence(t *testing.T) {
	for _, s := range jsonscantest.Seeds {
		decodeEquiv(t, []byte(s))
	}
	// The scanner's nesting cap: 9999 open containers inside the object
	// pass, 10001 fail — on both decoders.
	deep := func(n int) []byte {
		return []byte(`{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`)
	}
	decodeEquiv(t, deep(jsonscan.MaxDepth-1))
	decodeEquiv(t, deep(jsonscan.MaxDepth+1))
}

// TestJSONDecodePooledReuse pins the scratch-reuse contract: a document
// decoded into a pooled wireRun whose slices carry stale capacity from
// a previous, larger decode must come out exactly as a fresh decode —
// nothing stale may leak through omitted fields.
func TestJSONDecodePooledReuse(t *testing.T) {
	sc := &ingestScratch{}
	big := []byte(`{"run":"big","invocations":[{"id":"i1","task":"t1"},{"id":"i2","task":"t2"}],` +
		`"artifacts":[{"id":"a1","generated_by":"i1"},{"id":"a2","generated_by":"i2"}],` +
		`"used":[{"process":"i1","artifact":"a1"},{"process":"i2","artifact":"a2"}]}`)
	if err := sc.decodeDoc(sc.wire(), big); err != nil {
		t.Fatalf("decode big: %v", err)
	}
	small := []byte(`{"run":"small","artifacts":[{"id":"b1"}]}`)
	w := sc.wire()
	if err := sc.decodeDoc(w, small); err != nil {
		t.Fatalf("decode small: %v", err)
	}
	var fresh wireRun
	if err := json.Unmarshal(small, &fresh); err != nil {
		t.Fatalf("fresh decode: %v", err)
	}
	if w.Run != fresh.Run || w.Version != fresh.Version ||
		len(w.Invocations) != len(fresh.Invocations) ||
		len(w.Used) != len(fresh.Used) ||
		!reflect.DeepEqual(append([]wireArtifact{}, w.Artifacts...), fresh.Artifacts) {
		t.Fatalf("pooled decode diverges from fresh decode:\n  pooled: %+v\n  fresh:  %+v", w, fresh)
	}
	if w.Artifacts[0].GeneratedBy != "" {
		t.Fatalf("stale generated_by leaked through pooled reuse: %+v", w.Artifacts[0])
	}
}

// TestJSONDecodeLineBufs pins the pooled NDJSON line decode: pointer
// fields alias the scratch buffers, values match encoding/json, and a
// second decode does not disturb values copied out of the first.
func TestJSONDecodeLineBufs(t *testing.T) {
	var d jsonscan.Decoder
	var bufs wireLineBufs
	var l wireLine
	if err := decodeWireLineJSON(&d, &l, []byte(`{"invocation":{"id":"i1","task":"t1"}}`), &bufs); err != nil {
		t.Fatalf("decode line: %v", err)
	}
	if l.Invocation != &bufs.inv {
		t.Fatalf("pooled line decode did not alias the scratch buffer")
	}
	first := *l.Invocation
	l = wireLine{}
	if err := decodeWireLineJSON(&d, &l, []byte(`{"invocation":{"id":"i2","task":"t2"}}`), &bufs); err != nil {
		t.Fatalf("decode second line: %v", err)
	}
	if first.ID != "i1" || first.Task != "t1" {
		t.Fatalf("copied-out record disturbed by the next decode: %+v", first)
	}
	if l.Invocation.ID != "i2" || l.Invocation.Task != "t2" {
		t.Fatalf("second decode wrong: %+v", l.Invocation)
	}
}

// FuzzJSONDecodeEquivalence differentially fuzzes the hand-rolled
// decoder against encoding/json over both wire shapes: any input where
// acceptance or the decoded struct diverges is a bug in jsondec.go.
func FuzzJSONDecodeEquivalence(f *testing.F) {
	for _, s := range jsonscantest.Seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeEquiv(t, data)
	})
}
