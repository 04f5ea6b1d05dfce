package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"wolves/internal/engine"
	"wolves/internal/jsonscan"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// Request decoding. The soundness envelopes (ValidateRequest,
// CorrectRequest, BatchRequest/BatchJob, RegisterRequest) decode in one
// reflection-free pass over the body on the shared scanner: the
// embedded workflow and view documents are kept as spans of the body —
// the bytes a json.RawMessage field would hold, without the copy — and
// decoded once each, by workflow.Decode and view.Decode. Acceptance and
// the decoded fields match json.Unmarshal into the wire types (the
// server tests differentially fuzz the two); like json.Unmarshal, and
// unlike a json.Decoder, anything but whitespace after the body's value
// is rejected.

// job is a decoded validate/correct request or batch job.
type job struct {
	op, criterion  string
	workflow, view []byte
}

// Envelope fields: each request type knows a subset; the others are
// skipped like encoding/json's unknown fields.
const (
	fieldOp = 1 << iota
	fieldWorkflow
	fieldView
	fieldCriterion

	validateFields = fieldWorkflow | fieldView
	correctFields  = validateFields | fieldCriterion
	batchJobFields = correctFields | fieldOp
)

// jobField maps an envelope key to its field: exact names first, then
// encoding/json's case-folded fallback.
func jobField(key []byte) int {
	switch string(key) {
	case "op":
		return fieldOp
	case "workflow":
		return fieldWorkflow
	case "view":
		return fieldView
	case "criterion":
		return fieldCriterion
	}
	switch {
	case jsonscan.FoldEq(key, "OP"):
		return fieldOp
	case jsonscan.FoldEq(key, "WORKFLOW"):
		return fieldWorkflow
	case jsonscan.FoldEq(key, "VIEW"):
		return fieldView
	case jsonscan.FoldEq(key, "CRITERION"):
		return fieldCriterion
	}
	return 0
}

// decode decodes a job object knowing the given fields.
func (j *job) decode(d *jsonscan.Decoder, fields int) error {
	return d.Object(func(key []byte) error {
		switch jobField(key) & fields {
		case fieldOp:
			return d.String(&j.op)
		case fieldWorkflow:
			return d.Raw(&j.workflow)
		case fieldView:
			return d.Raw(&j.view)
		case fieldCriterion:
			return d.String(&j.criterion)
		}
		return d.Skip()
	})
}

// decodeJobs decodes a BatchRequest into its jobs.
func decodeJobs(d *jsonscan.Decoder, jobs *[]job) error {
	return d.Object(func(key []byte) error {
		if string(key) == "jobs" || jsonscan.FoldEq(key, "JOBS") {
			return jsonscan.Array(d, jobs, func(j *job) error { return j.decode(d, batchJobFields) })
		}
		return d.Skip()
	})
}

// registration is a decoded RegisterRequest.
type registration struct {
	workflow []byte
	views    []registerView
}

// registerView is a decoded RegisterView.
type registerView struct {
	id   string
	view []byte
}

func (rg *registration) decode(d *jsonscan.Decoder) error {
	views := func() error {
		return jsonscan.Array(d, &rg.views, func(rv *registerView) error { return rv.decode(d) })
	}
	return d.Object(func(key []byte) error {
		switch string(key) {
		case "workflow":
			return d.Raw(&rg.workflow)
		case "views":
			return views()
		}
		switch {
		case jsonscan.FoldEq(key, "WORKFLOW"):
			return d.Raw(&rg.workflow)
		case jsonscan.FoldEq(key, "VIEWS"):
			return views()
		}
		return d.Skip()
	})
}

func (rv *registerView) decode(d *jsonscan.Decoder) error {
	return d.Object(func(key []byte) error {
		switch {
		case string(key) == "id":
			return d.String(&rv.id)
		case string(key) == "view":
			return d.Raw(&rv.view)
		case jsonscan.FoldEq(key, "ID"):
			return d.String(&rv.id)
		case jsonscan.FoldEq(key, "VIEW"):
			return d.Raw(&rv.view)
		}
		return d.Skip()
	})
}

// decodeEnvelope reads the request body and decodes it with decode,
// which must consume exactly one JSON value; the spans it keeps alias
// the body. As for decodeBody, an oversized body surfaces as a read
// error.
func decodeEnvelope(r *http.Request, decode func(d *jsonscan.Decoder) error) error {
	// Size the buffer from Content-Length so a typical body lands in one
	// allocation. The header is only the client's claim, so it sizes at
	// most presizeCap up front; larger bodies grow as they arrive.
	buf := bytes.NewBuffer(make([]byte, 0, min(max(r.ContentLength, 0), presizeCap)+bytes.MinRead))
	_, err := buf.ReadFrom(r.Body)
	body := buf.Bytes()
	if err == nil {
		err = scanBody(body, decode)
	}
	if err != nil {
		return &engine.Error{Code: engine.ErrBadInput, Op: "decode", Message: err.Error(), Err: err}
	}
	return nil
}

// scanBody runs decode over body and rejects anything after the value.
func scanBody(body []byte, decode func(d *jsonscan.Decoder) error) error {
	var d jsonscan.Decoder
	d.Reset(body)
	if err := decode(&d); err != nil {
		return err
	}
	return d.End()
}

// decodeBody decodes a JSON body into dst with encoding/json, for the
// small request shapes that carry no workflow or view document. The
// size cap is applied once, by the Handler middleware; an oversized
// body surfaces here as a decode error (net/http's MaxBytesReader has
// already replied 413 on the wire). Anything but whitespace after the
// value is rejected.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(r.Body)
	err := dec.Decode(dst)
	if err == nil {
		if _, terr := dec.Token(); terr != io.EOF {
			err = errTrailing
		}
	}
	if err != nil {
		return &engine.Error{Code: engine.ErrBadInput, Op: "decode", Message: err.Error(), Err: err}
	}
	return nil
}

var errTrailing = errors.New("invalid data after top-level value")

// presizeCap bounds the body buffer allocated on a Content-Length
// header's word alone.
const presizeCap = 256 << 10

// decodePair decodes the workflow and view documents of a job into
// validated model objects.
func decodePair(wfRaw, vRaw []byte) (*workflow.Workflow, *view.View, error) {
	if len(wfRaw) == 0 {
		return nil, nil, &engine.Error{Code: engine.ErrBadInput, Op: "decode", Message: "missing workflow"}
	}
	if len(vRaw) == 0 {
		return nil, nil, &engine.Error{Code: engine.ErrBadInput, Op: "decode", Message: "missing view"}
	}
	var d jsonscan.Decoder
	d.Reset(wfRaw)
	wf, err := workflow.Decode(&d)
	if err != nil {
		return nil, nil, &engine.Error{Code: engine.ErrBadInput, Op: "decode", Message: err.Error(), Err: err}
	}
	d.Reset(vRaw)
	v, err := view.Decode(&d, wf)
	if err != nil {
		return nil, nil, &engine.Error{Code: engine.ErrBadInput, Op: "decode", Message: err.Error(), Err: err}
	}
	return wf, v, nil
}
