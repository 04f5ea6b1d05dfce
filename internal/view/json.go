package view

import (
	"encoding/json"
	"fmt"
	"io"

	"wolves/internal/jsonscan"
	"wolves/internal/workflow"
)

// jsonView is the on-disk JSON shape of a view: composite → member IDs.
type jsonView struct {
	Name       string          `json:"name"`
	Workflow   string          `json:"workflow"`
	Composites []jsonComposite `json:"composites"`
}

type jsonComposite struct {
	ID      string   `json:"id"`
	Name    string   `json:"name,omitempty"`
	Members []string `json:"members"`
}

// MarshalJSON encodes the view in a stable format.
func (v *View) MarshalJSON() ([]byte, error) {
	jv := jsonView{Name: v.name, Workflow: v.wf.Name()}
	for i := range v.comps {
		c := &v.comps[i]
		jc := jsonComposite{ID: c.ID, Members: v.MemberIDs(i)}
		if c.Name != c.ID {
			jc.Name = c.Name
		}
		jv.Composites = append(jv.Composites, jc)
	}
	return json.Marshal(jv)
}

// DecodeJSON reads a view over wf from r and validates the partition.
// Like an encoding/json Decoder, it decodes the first JSON value in r
// and ignores whatever follows it.
func DecodeJSON(wf *workflow.Workflow, r io.Reader) (*View, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("view: decode: %w", err)
	}
	var d jsonscan.Decoder
	d.Reset(data)
	return Decode(&d, wf)
}

// decodedComposite is jsonComposite as decoded: member IDs stay spans
// of the input, since they only resolve to task indices.
type decodedComposite struct {
	id, name string
	members  [][]byte
}

// Decode decodes the view document at d's cursor over wf, consuming
// exactly that one JSON value, and validates the partition. Acceptance
// matches decoding into jsonView with encoding/json and unknown fields
// disallowed.
func Decode(d *jsonscan.Decoder, wf *workflow.Workflow) (*View, error) {
	var name, target string
	var comps []decodedComposite
	decodeComps := func() error {
		return jsonscan.Array(d, &comps, func(c *decodedComposite) error { return c.decode(d) })
	}
	err := d.Object(func(key []byte) error {
		switch string(key) {
		case "name":
			return d.String(&name)
		case "workflow":
			return d.String(&target)
		case "composites":
			return decodeComps()
		}
		switch {
		case jsonscan.FoldEq(key, "NAME"):
			return d.String(&name)
		case jsonscan.FoldEq(key, "WORKFLOW"):
			return d.String(&target)
		case jsonscan.FoldEq(key, "COMPOSITES"):
			return decodeComps()
		}
		return fmt.Errorf("json: unknown field %q", key)
	})
	if err != nil {
		return nil, fmt.Errorf("view: decode: %w", err)
	}
	if target != "" && target != wf.Name() {
		return nil, fmt.Errorf("view: file targets workflow %q, got %q", target, wf.Name())
	}
	b := NewBuilder(wf, name)
	for _, c := range comps {
		b.assignBytes(c.id, c.members)
		if c.name != "" {
			b.Named(c.id, c.name)
		}
	}
	return b.Build()
}

// decode decodes one composite object into c.
func (c *decodedComposite) decode(d *jsonscan.Decoder) error {
	return d.Object(func(key []byte) error {
		switch string(key) {
		case "id":
			return d.String(&c.id)
		case "name":
			return d.String(&c.name)
		case "members":
			return jsonscan.Array(d, &c.members, d.Bytes)
		}
		switch {
		case jsonscan.FoldEq(key, "ID"):
			return d.String(&c.id)
		case jsonscan.FoldEq(key, "NAME"):
			return d.String(&c.name)
		case jsonscan.FoldEq(key, "MEMBERS"):
			return jsonscan.Array(d, &c.members, d.Bytes)
		}
		return fmt.Errorf("json: unknown field %q", key)
	})
}

// EncodeJSON writes the view as indented JSON.
func (v *View) EncodeJSON(out io.Writer) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
