package workflow

import (
	"encoding/json"
	"fmt"
	"io"

	"wolves/internal/jsonscan"
)

// jsonWorkflow is the on-disk JSON shape of a workflow specification.
type jsonWorkflow struct {
	Name  string      `json:"name"`
	Tasks []jsonTask  `json:"tasks"`
	Edges [][2]string `json:"edges"`
}

type jsonTask struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	Kind string `json:"kind,omitempty"`
}

// MarshalJSON encodes the workflow in a stable, human-editable format.
func (w *Workflow) MarshalJSON() ([]byte, error) {
	jw := jsonWorkflow{Name: w.name, Edges: w.Edges()}
	for _, t := range w.tasks {
		jt := jsonTask{ID: t.ID, Kind: t.Kind}
		if t.Name != t.ID {
			jt.Name = t.Name
		}
		jw.Tasks = append(jw.Tasks, jt)
	}
	return json.Marshal(jw)
}

// DecodeJSON reads and validates a workflow from r. Like an
// encoding/json Decoder, it decodes the first JSON value in r and
// ignores whatever follows it.
func DecodeJSON(r io.Reader) (*Workflow, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("workflow: decode: %w", err)
	}
	var d jsonscan.Decoder
	d.Reset(data)
	return Decode(&d)
}

// Decode decodes and validates the workflow document at d's cursor,
// consuming exactly that one JSON value. Acceptance matches decoding
// into jsonWorkflow with encoding/json and unknown fields disallowed.
func Decode(d *jsonscan.Decoder) (*Workflow, error) {
	var name string
	// Tasks decode straight into Task values, which share jsonTask's
	// fields; an empty Name defaults to the ID below. Edge endpoints
	// stay spans of the input: they only resolve to task indices, so
	// they need no string of their own.
	var tasks []Task
	var edges [][2][]byte
	decodeTasks := func() error { return jsonscan.Array(d, &tasks, func(t *Task) error { return decodeTask(d, t) }) }
	decodeEdges := func() error {
		return jsonscan.Array(d, &edges, func(e *[2][]byte) error { return jsonscan.Fixed(d, e[:], d.Bytes) })
	}
	err := d.Object(func(key []byte) error {
		switch string(key) {
		case "name":
			return d.String(&name)
		case "tasks":
			return decodeTasks()
		case "edges":
			return decodeEdges()
		}
		switch {
		case jsonscan.FoldEq(key, "NAME"):
			return d.String(&name)
		case jsonscan.FoldEq(key, "TASKS"):
			return decodeTasks()
		case jsonscan.FoldEq(key, "EDGES"):
			return decodeEdges()
		}
		return unknownField(key)
	})
	if err != nil {
		return nil, fmt.Errorf("workflow: decode: %w", err)
	}
	// Exact capacity: the workflow keeps this slice.
	b := &Builder{name: name, tasks: make([]Task, 0, len(tasks)), index: make(map[string]int, len(tasks))}
	for _, t := range tasks {
		if t.Name == "" {
			t.Name = t.ID
		}
		b.addTask(t)
	}
	return build(b.name, b.tasks, b.index, b.errs, edges)
}

// decodeTask decodes one jsonTask object into t.
func decodeTask(d *jsonscan.Decoder, t *Task) error {
	return d.Object(func(key []byte) error {
		switch string(key) {
		case "id":
			return d.String(&t.ID)
		case "name":
			return d.String(&t.Name)
		case "kind":
			return d.String(&t.Kind)
		}
		switch {
		case jsonscan.FoldEq(key, "ID"):
			return d.String(&t.ID)
		case jsonscan.FoldEq(key, "NAME"):
			return d.String(&t.Name)
		case jsonscan.FoldEq(key, "KIND"):
			return d.String(&t.Kind)
		}
		return unknownField(key)
	})
}

// unknownField rejects a key the document shape does not have, as
// encoding/json does with DisallowUnknownFields.
func unknownField(key []byte) error {
	return fmt.Errorf("json: unknown field %q", key)
}

// EncodeJSON writes the workflow as indented JSON.
func (w *Workflow) EncodeJSON(out io.Writer) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(w)
}
