package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"wolves/internal/engine"
	"wolves/internal/gen"
	"wolves/internal/workflow"
)

// benchBody returns a /v1/validate body over a layered workflow of n
// tasks with an interval view of n/8 composites — the shape of the
// soundness-service benchmark's requests — plus its workflow document.
func benchBody(b *testing.B, n int) (body, wfRaw []byte) {
	b.Helper()
	wf := gen.Layered(gen.LayeredConfig{Name: "bench", Tasks: n, Layers: max(4, n/16), EdgeProb: 0.15, Seed: 1})
	v := gen.IntervalView(wf, max(2, n/8), "view")
	wfRaw, err := json.Marshal(wf)
	if err != nil {
		b.Fatal(err)
	}
	vRaw, err := json.Marshal(v)
	if err != nil {
		b.Fatal(err)
	}
	body, err = json.Marshal(ValidateRequest{Workflow: wfRaw, View: vRaw})
	if err != nil {
		b.Fatal(err)
	}
	return body, wfRaw
}

var benchWorkflow *workflow.Workflow

// BenchmarkDecodeWorkflow measures decoding and validating one workflow
// document: the first step of every soundness request.
func BenchmarkDecodeWorkflow(b *testing.B) {
	for _, n := range []int{64, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			_, wfRaw := benchBody(b, n)
			b.SetBytes(int64(len(wfRaw)))
			b.ReportAllocs()
			for b.Loop() {
				wf, err := workflow.DecodeJSON(bytes.NewReader(wfRaw))
				if err != nil {
					b.Fatal(err)
				}
				benchWorkflow = wf
			}
		})
	}
}

// BenchmarkValidateHandler measures POST /v1/validate in process, from
// the request body to the encoded response, with the workflow's oracle
// already cached — the steady state of a soundness service.
func BenchmarkValidateHandler(b *testing.B) {
	for _, n := range []int{64, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			body, _ := benchBody(b, n)
			h := New(engine.New(), WithRequestTimeout(0)).Handler()
			serve := func() {
				req := httptest.NewRequest(http.MethodPost, "/v1/validate", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
			serve() // build and cache the oracle
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				serve()
			}
		})
	}
}
