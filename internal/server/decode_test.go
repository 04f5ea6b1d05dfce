package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"wolves/internal/jsonscan"
	"wolves/internal/jsonscan/jsonscantest"
	"wolves/internal/repo"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// The encoding/json decode path the scanner decoders replaced, kept as
// the oracle they are differentially tested against: workflow and view
// documents through a json.Decoder with unknown fields disallowed (the
// first value decodes, anything after it is ignored), envelopes through
// json.Unmarshal into the wire types.

type oracleWorkflowDoc struct {
	Name  string `json:"name"`
	Tasks []struct {
		ID   string `json:"id"`
		Name string `json:"name,omitempty"`
		Kind string `json:"kind,omitempty"`
	} `json:"tasks"`
	Edges [][2]string `json:"edges"`
}

type oracleViewDoc struct {
	Name       string `json:"name"`
	Workflow   string `json:"workflow"`
	Composites []struct {
		ID      string   `json:"id"`
		Name    string   `json:"name,omitempty"`
		Members []string `json:"members"`
	} `json:"composites"`
}

func oracleDecodeWorkflow(data []byte) (*workflow.Workflow, error) {
	var jw oracleWorkflowDoc
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jw); err != nil {
		return nil, &oracleDecodeErr{err}
	}
	b := workflow.NewBuilder(jw.Name)
	for _, t := range jw.Tasks {
		opts := []workflow.TaskOption{}
		if t.Name != "" {
			opts = append(opts, workflow.WithName(t.Name))
		}
		if t.Kind != "" {
			opts = append(opts, workflow.WithKind(t.Kind))
		}
		b.AddTask(t.ID, opts...)
	}
	for _, e := range jw.Edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

func oracleDecodeView(wf *workflow.Workflow, data []byte) (*view.View, error) {
	var jv oracleViewDoc
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jv); err != nil {
		return nil, &oracleDecodeErr{err}
	}
	if jv.Workflow != "" && jv.Workflow != wf.Name() {
		return nil, fmt.Errorf("view: file targets workflow %q, got %q", jv.Workflow, wf.Name())
	}
	b := view.NewBuilder(wf, jv.Name)
	for _, c := range jv.Composites {
		b.Assign(c.ID, c.Members...)
		if c.Name != "" {
			b.Named(c.ID, c.Name)
		}
	}
	return b.Build()
}

// oracleDecodeErr marks a failure of the JSON decode itself, whose text
// is encoding/json's; validation failures after it must match the new
// path's messages exactly.
type oracleDecodeErr struct{ err error }

func (e *oracleDecodeErr) Error() string { return e.err.Error() }

// sameAcceptance fails t unless both decoders accepted or both
// rejected.
func sameAcceptance(t *testing.T, what string, data []byte, werr, gerr error) {
	t.Helper()
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%s acceptance diverges on %q:\n  encoding/json: %v\n  scanner:       %v", what, data, werr, gerr)
	}
}

// sameFailure is sameAcceptance for documents, which must also reject
// in the same phase: a JSON decode failure on one side must be one on
// the other, and validation failures must carry the same message.
func sameFailure(t *testing.T, what string, data []byte, werr, gerr error) {
	t.Helper()
	sameAcceptance(t, what, data, werr, gerr)
	if werr == nil {
		return
	}
	var de *oracleDecodeErr
	oracleDecode := errors.As(werr, &de)
	if scanDecode := strings.Contains(gerr.Error(), ": decode: "); oracleDecode != scanDecode {
		t.Fatalf("%s rejects in different phases on %q:\n  encoding/json: %v\n  scanner:       %v", what, data, werr, gerr)
	}
	if !oracleDecode && werr.Error() != gerr.Error() {
		t.Fatalf("%s validation error diverges on %q:\n  encoding/json: %v\n  scanner:       %v", what, data, werr, gerr)
	}
}

func workflowEquiv(t *testing.T, data []byte) {
	t.Helper()
	want, werr := oracleDecodeWorkflow(data)
	got, gerr := workflow.DecodeJSON(bytes.NewReader(data))
	sameFailure(t, "workflow", data, werr, gerr)
	if werr != nil {
		return
	}
	if want.Name() != got.Name() || want.N() != got.N() ||
		!reflect.DeepEqual(want.Edges(), got.Edges()) {
		t.Fatalf("workflow diverges on %q:\n  encoding/json: %v %v\n  scanner:       %v %v", data, want, want.Edges(), got, got.Edges())
	}
	for i := 0; i < want.N(); i++ {
		if want.Task(i) != got.Task(i) {
			t.Fatalf("workflow task %d diverges on %q: %+v vs %+v", i, data, want.Task(i), got.Task(i))
		}
	}
}

// equivWorkflow is the workflow view documents are decoded against.
var equivWorkflow = func() *workflow.Workflow {
	wf, err := workflow.NewBuilder("w").AddTask("a").AddTask("b").AddTask("c").AddTask("d").Chain("a", "b", "c", "d").Build()
	if err != nil {
		panic(err)
	}
	return wf
}()

func viewEquiv(t *testing.T, wf *workflow.Workflow, data []byte) {
	t.Helper()
	want, werr := oracleDecodeView(wf, data)
	got, gerr := view.DecodeJSON(wf, bytes.NewReader(data))
	sameFailure(t, "view", data, werr, gerr)
	if werr != nil {
		return
	}
	if want.Name() != got.Name() || !reflect.DeepEqual(want.PartOf(), got.PartOf()) ||
		!reflect.DeepEqual(want.CompositeIDs(), got.CompositeIDs()) {
		t.Fatalf("view diverges on %q:\n  encoding/json: %s\n  scanner:       %s", data, want.Describe(), got.Describe())
	}
	for i := 0; i < want.N(); i++ {
		if want.Composite(i).Name != got.Composite(i).Name {
			t.Fatalf("view composite %d name diverges on %q", i, data)
		}
	}
}

// envelopeEquiv decodes data as each soundness envelope with both
// paths and compares acceptance and every decoded field; the embedded
// documents of accepted envelopes go through the document checks too.
func envelopeEquiv(t *testing.T, data []byte) {
	t.Helper()
	sameJob := func(what string, w BatchJob, g job) {
		t.Helper()
		if w.Op != g.op || w.Criterion != g.criterion ||
			!bytes.Equal(w.Workflow, g.workflow) || !bytes.Equal(w.View, g.view) {
			t.Fatalf("%s diverges on %q:\n  encoding/json: %+v\n  scanner:       %+v", what, data, w, g)
		}
		documentsEquiv(t, g.workflow, g.view)
	}

	var vr ValidateRequest
	var vj job
	werr := json.Unmarshal(data, &vr)
	gerr := scanBody(data, func(d *jsonscan.Decoder) error { return vj.decode(d, validateFields) })
	sameAcceptance(t, "ValidateRequest", data, werr, gerr)
	if werr == nil {
		sameJob("ValidateRequest", BatchJob{Workflow: vr.Workflow, View: vr.View}, vj)
	}

	var cr CorrectRequest
	var cj job
	werr = json.Unmarshal(data, &cr)
	gerr = scanBody(data, func(d *jsonscan.Decoder) error { return cj.decode(d, correctFields) })
	sameAcceptance(t, "CorrectRequest", data, werr, gerr)
	if werr == nil {
		sameJob("CorrectRequest", BatchJob{Workflow: cr.Workflow, View: cr.View, Criterion: cr.Criterion}, cj)
	}

	var br BatchRequest
	var jobs []job
	werr = json.Unmarshal(data, &br)
	gerr = scanBody(data, func(d *jsonscan.Decoder) error { return decodeJobs(d, &jobs) })
	sameAcceptance(t, "BatchRequest", data, werr, gerr)
	if werr == nil {
		if len(br.Jobs) != len(jobs) || (br.Jobs == nil) != (jobs == nil) {
			t.Fatalf("BatchRequest jobs diverge on %q: %d vs %d", data, len(br.Jobs), len(jobs))
		}
		for i := range jobs {
			sameJob("BatchJob", br.Jobs[i], jobs[i])
		}
	}

	var rr RegisterRequest
	var rg registration
	werr = json.Unmarshal(data, &rr)
	gerr = scanBody(data, rg.decode)
	sameAcceptance(t, "RegisterRequest", data, werr, gerr)
	if werr == nil {
		if !bytes.Equal(rr.Workflow, rg.workflow) || len(rr.Views) != len(rg.views) || (rr.Views == nil) != (rg.views == nil) {
			t.Fatalf("RegisterRequest diverges on %q:\n  encoding/json: %+v\n  scanner:       %+v", data, rr, rg)
		}
		for i, rv := range rg.views {
			if rr.Views[i].ID != rv.id || !bytes.Equal(rr.Views[i].View, rv.view) {
				t.Fatalf("RegisterView %d diverges on %q: %+v vs %+v", i, data, rr.Views[i], rv)
			}
			documentsEquiv(t, rg.workflow, rv.view)
		}
	}
}

// documentsEquiv checks a decoded envelope's workflow document, then
// its view document against that workflow (or the fixed one when the
// workflow does not decode).
func documentsEquiv(t *testing.T, wfRaw, vRaw []byte) {
	t.Helper()
	wf := equivWorkflow
	if len(wfRaw) > 0 {
		workflowEquiv(t, wfRaw)
		if got, err := workflow.DecodeJSON(bytes.NewReader(wfRaw)); err == nil {
			wf = got
		}
	}
	if len(vRaw) > 0 {
		viewEquiv(t, wf, vRaw)
	}
}

// decodeEquivAll runs every document and envelope check on data.
func decodeEquivAll(t *testing.T, data []byte) {
	t.Helper()
	workflowEquiv(t, data)
	viewEquiv(t, equivWorkflow, data)
	envelopeEquiv(t, data)
}

const (
	seedWorkflow = `{"name":"w","tasks":[{"id":"a"},{"id":"b","name":"B","kind":"k"},{"id":"c"},{"id":"d"}],"edges":[["a","b"],["b","c"],["c","d"]]}`
	seedView     = `{"name":"v","workflow":"w","composites":[{"id":"A","name":"first","members":["a","b"]},{"id":"B","members":["c","d"]}]}`
)

// workflowViewSeeds extend the shared corner corpus to the workflow,
// view and envelope shapes: [2]string edges short, long and null,
// duplicate keys regrowing slices, case-folded and Unicode-folded keys,
// unknown fields, validation failures, and trailing bytes.
var workflowViewSeeds = []string{
	seedWorkflow,
	seedView,
	`{"name":"w","tasks":[{"id":"a"},{"id":"b"}],"edges":[["a"]]}`,
	`{"name":"w","tasks":[{"id":"a"},{"id":"b"}],"edges":[[]]}`,
	`{"name":"w","tasks":[{"id":"a"},{"id":"b"}],"edges":[["a","b","c"]]}`,
	`{"name":"w","tasks":[{"id":"a"},{"id":"b"}],"edges":[["a","b",5,{"x":[1,{"y":null}]}]]}`,
	`{"name":"w","tasks":[{"id":"a"},{"id":"b"}],"edges":[null]}`,
	`{"name":"w","tasks":[{"id":"a"},{"id":"b"}],"edges":[["a",null]]}`,
	`{"name":"w","tasks":[{"id":"a"},{"id":"b"}],"edges":[["a",1]]}`,
	`{"name":"w","tasks":[{"id":"a"},{"id":"b"}],"edges":["ab"]}`,
	`{"name":"w","tasks":[{"id":"a"},{"id":"b"},{"id":"c"}],"edges":[["a","b"],["b","c"]],"edges":[["b"]],"edges":[["a","b"],[null,"a"]]}`,
	`{"name":"w","tasks":[{"id":"a"},{"id":"b"}],"edges":[["a","b"]],"edges":null}`,
	`{"name":"w","tasks":[{"id":"a"},{"id":"b"}],"edges":[["a","b"],["b","a"]]}`,
	`{"name":"w","tasks":[{"id":"a"}],"edges":[["a","a"]]}`,
	`{"name":"w","tasks":[{"id":"a"},{"id":"a"}]}`,
	`{"name":"w","tasks":[{"id":""}]}`,
	`{"name":"w","tasks":[]}`,
	`{"name":"w","tasks":null}`,
	`{"name":"w","tasks":[null,{"id":"a"}]}`,
	`{"name":"w","tasks":[{"id":"a","name":"x"}],"tasks":[{"kind":"k"}]}`,
	`{"NAME":"w","Tasks":[{"ID":"a","Kind":"k"}],"EDGES":[]}`,
	`{"name":"w","tas\u212As":[{"id":"a"}]}`,
	"{\"name\":\"w\",\"tasks\":[{\"id\":\"\xc5\xbfa\"}],\"\xc5\xbftub\":1}",
	`{"name":"w","tasks":[{"id":"a","color":"red"}]}`,
	`{"name":"w","tasks":[{"id":"a\u0062"},{"id":"\ud834\udd1e"},{"id":"\ud834"}],"edges":[["ab","\ud834\udd1e"],["\ufffd","ab"]]}`,
	"{\"name\":\"w\",\"tasks\":[{\"id\":\"\xff\"},{\"id\":\"b\"}],\"edges\":[[\"\xfe\",\"b\"]]}",
	`{"name":"w","tasks":[{"id":"a"}]} trailing`,
	`{"name":"v","composites":[{"id":"A","members":["a","b"]},{"id":"A","name":"n","members":["c","d"]}]}`,
	`{"name":"v","composites":[{"id":"A","members":["a","b","c","d"]}],"workflow":"other"}`,
	`{"name":"v","composites":[{"id":"A","members":[]},{"id":"B","members":["a","b","c","d"]}]}`,
	`{"name":"v","composites":[{"id":"A","members":["a","b","c","x"]}]}`,
	`{"name":"v","composites":[{"id":"A","members":["a","b","c","a"]}]}`,
	`{"name":"v","composites":[{"id":"A","members":["a","b","c"]}]}`,
	`{"name":"v","composites":[{"id":"A","members":["a",null,"b"]}]}`,
	`{"name":"v","composites":[{"id":"A","members":["a","b","c","d"]}],"composites":[{"members":["d"]}]}`,
	`{"name":"v","composites":[{"id":"A","members":["a","b"]},{"id":"B","members":["c","d"]}],"composites":[{}],"composites":[{"members":["a","b"]},{}]}`,
	`{"name":"v","composites":[{"id":"A","members":["a","b","c","d"],"extra":true}]}`,
	`{"workflow":` + seedWorkflow + `,"view":` + seedView + `,"criterion":"weak","op":"validate"}`,
	`{"Workflow":` + seedWorkflow + `,"VIEW":null,"Criterion":null,"unknown":[1,{"a":"b"}]}`,
	`{"workflow":` + seedWorkflow + `,"view":` + seedView + `}}garbage{"x":`,
	`{"jobs":[{"op":"validate","workflow":` + seedWorkflow + `,"view":` + seedView + `},null,{"op":"correct","criterion":"strong"}]}`,
	`{"jobs":[{"op":"a"},{"op":"b"}],"jobs":[{}],"jobs":[{},{"criterion":"c"}]}`,
	`{"jobs":[],"JOBS":null}`,
	`{"jobs":{"op":"validate"}}`,
	`{"workflow":` + seedWorkflow + `,"views":[{"id":"v1","view":` + seedView + `},{"view":null},null]}`,
	`{"workflow":"not a document","views":[{"id":7}]}`,
	`{"workflow":{"name":"w","tasks":[{"id":"a"}]},"views":[{"id":"v","view":{"composites":[{"id":"A","members":["a"]}]}}]} `,
}

func TestWorkflowViewDecodeEquivalence(t *testing.T) {
	for _, s := range append(append([]string(nil), jsonscantest.Seeds...), workflowViewSeeds...) {
		decodeEquivAll(t, []byte(s))
	}
	// The scanner's nesting cap, inside a skipped envelope field and in
	// a fixed array's skipped tail.
	deep := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	for _, n := range []int{jsonscan.MaxDepth - 2, jsonscan.MaxDepth + 1} {
		decodeEquivAll(t, []byte(`{"x":`+deep(n)+`}`))
		decodeEquivAll(t, []byte(`{"name":"w","tasks":[{"id":"a"}],"edges":[["a","a",`+deep(n)+`]]}`))
	}
}

// FuzzWorkflowViewDecodeEquivalence differentially fuzzes the scanner
// decoders of workflow documents, view documents and the soundness
// request envelopes against the encoding/json path they replaced: any
// input where acceptance, the decoded value or a validation error
// diverges is a bug in the scanner decoders.
func FuzzWorkflowViewDecodeEquivalence(f *testing.F) {
	for _, s := range jsonscantest.Seeds {
		f.Add([]byte(s))
	}
	for _, s := range workflowViewSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(decodeEquivAll)
}

// TestTrailingBytesRejected pins the request framing rule: every JSON
// request endpoint answers 400 bad_input when anything but whitespace
// follows the body's value, before any state changes; the same body
// without the garbage succeeds.
func TestTrailingBytesRejected(t *testing.T) {
	ts, _ := bootRunServer(t)
	wf, v := repo.Figure1()
	wfRaw, vRaw := rawPair(t, wf, v)
	pair := `{"workflow":` + string(wfRaw) + `,"view":` + string(vRaw)
	const garbage = `}}garbage{"x":`
	cases := []struct{ method, path, body string }{
		// Stateless soundness endpoints.
		{http.MethodPost, "/v1/validate", pair + `}`},
		{http.MethodPost, "/v1/correct", pair + `,"criterion":"weak"}`},
		{http.MethodPost, "/v1/batch", `{"jobs":[` + pair + `,"op":"validate"}]}`},
		// Live workflow resources.
		{http.MethodPut, "/v1/workflows/fresh", `{"workflow":` + string(wfRaw) + `,"views":[{"id":"v","view":` + string(vRaw) + `}]}`},
		{http.MethodPut, "/v1/workflows/phylo/views/again", string(vRaw)},
		{http.MethodPost, "/v1/workflows/phylo/mutate", `{"tasks":[{"id":"extra"}]}`},
		{http.MethodPost, "/v1/workflows/phylo/views/fig1b/correct", `{"criterion":"weak"}`},
		{http.MethodPost, "/v1/workflows/phylo/views/fig1b/lineage", `{"task":"8"}`},
		// Provenance runs.
		{http.MethodPost, "/v1/workflows/phylo/runs/query", `{"queries":[{"run":"none","artifact":"a8"}]}`},
	}
	for _, c := range cases {
		status, body := do(t, ts, c.method, c.path, c.body+garbage, "application/json")
		if status != http.StatusBadRequest || !strings.Contains(body, `"code":"bad_input"`) {
			t.Errorf("%s %s with trailing bytes: %d %s", c.method, c.path, status, body)
		}
		if status, body := do(t, ts, c.method, c.path, c.body+" \n", "application/json"); status != http.StatusOK {
			t.Errorf("%s %s: %d %s", c.method, c.path, status, body)
		}
	}
}
