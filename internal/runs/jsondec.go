// JSON decoding for the ingestion wire shapes. encoding/json's
// reflective decoder dominated the ingest profile — ~85% of
// Store.Ingest was json.Unmarshal of the incoming document — and the
// wire formats are three tiny fixed structs, so they decode on the
// shared reflection-free scanner (internal/jsonscan), which pins
// acceptance, rejection and the decoded structs to encoding/json
// (FuzzJSONDecodeEquivalence differentially fuzzes the two).
package runs

import "wolves/internal/jsonscan"

// wireLineBufs are the pointee buffers behind a decoded wireLine's
// pointer fields, so the per-line NDJSON decode allocates nothing. The
// pointers aliased into the wireLine are valid until the next decode
// with the same bufs — accumulate() copies them out line by line.
type wireLineBufs struct {
	inv  wireInvocation
	art  wireArtifact
	used wireUsed
}

// decodeRunDocJSON parses one JSON run document into w with d's
// scratch. Matches json.Unmarshal(doc, w) exactly.
func decodeRunDocJSON(d *jsonscan.Decoder, w *wireRun, doc []byte) error {
	d.Reset(doc)
	if err := runObject(d, w); err != nil {
		return err
	}
	return d.End()
}

// decodeWireLineJSON parses one NDJSON record into l. Pointer fields
// point into bufs when non-nil (the pooled path), or freshly allocated
// structs otherwise. Matches json.Unmarshal(line, l) exactly.
func decodeWireLineJSON(d *jsonscan.Decoder, l *wireLine, line []byte, bufs *wireLineBufs) error {
	d.Reset(line)
	if err := lineObject(d, l, bufs); err != nil {
		return err
	}
	return d.End()
}

// runObject decodes the wireRun object.
func runObject(d *jsonscan.Decoder, w *wireRun) error {
	invs := func() error {
		return jsonscan.Array(d, &w.Invocations, func(el *wireInvocation) error { return invocationObject(d, el) })
	}
	arts := func() error {
		return jsonscan.Array(d, &w.Artifacts, func(el *wireArtifact) error { return artifactObject(d, el) })
	}
	used := func() error { return jsonscan.Array(d, &w.Used, func(el *wireUsed) error { return usedObject(d, el) }) }
	return d.Object(func(key []byte) error {
		switch string(key) { // compiler-optimized, no allocation
		case "run":
			return d.String(&w.Run)
		case "version":
			return d.Uint64(&w.Version)
		case "invocations":
			return invs()
		case "artifacts":
			return arts()
		case "used":
			return used()
		}
		// No exact match: case-folded match in struct field order, like
		// encoding/json's fallback; then skip as an unknown field.
		switch {
		case jsonscan.FoldEq(key, "RUN"):
			return d.String(&w.Run)
		case jsonscan.FoldEq(key, "VERSION"):
			return d.Uint64(&w.Version)
		case jsonscan.FoldEq(key, "INVOCATIONS"):
			return invs()
		case jsonscan.FoldEq(key, "ARTIFACTS"):
			return arts()
		case jsonscan.FoldEq(key, "USED"):
			return used()
		}
		return d.Skip()
	})
}

// pointee decodes a pointer-typed field: null clears the pointer; an
// object decodes into the existing pointee when the pointer is already
// set (duplicate-key merge, exactly encoding/json's indirect() reuse)
// or into a zeroed buffer (pooled path) or fresh allocation when nil.
func pointee[T any](d *jsonscan.Decoder, p **T, buf *T, object func(*T) error) error {
	if null, err := d.Null(); null || err != nil {
		if null {
			*p = nil
		}
		return err
	}
	if *p == nil {
		if buf != nil {
			var zero T
			*buf = zero
			*p = buf
		} else {
			*p = new(T)
		}
	}
	return object(*p)
}

// lineObject decodes the wireLine object.
func lineObject(d *jsonscan.Decoder, l *wireLine, bufs *wireLineBufs) error {
	var invBuf *wireInvocation
	var artBuf *wireArtifact
	var usedBuf *wireUsed
	if bufs != nil {
		invBuf, artBuf, usedBuf = &bufs.inv, &bufs.art, &bufs.used
	}
	inv := func() error {
		return pointee(d, &l.Invocation, invBuf, func(el *wireInvocation) error { return invocationObject(d, el) })
	}
	art := func() error {
		return pointee(d, &l.Artifact, artBuf, func(el *wireArtifact) error { return artifactObject(d, el) })
	}
	used := func() error {
		return pointee(d, &l.Used, usedBuf, func(el *wireUsed) error { return usedObject(d, el) })
	}
	return d.Object(func(key []byte) error {
		switch string(key) {
		case "run":
			return d.String(&l.Run)
		case "invocation":
			return inv()
		case "artifact":
			return art()
		case "used":
			return used()
		}
		switch {
		case jsonscan.FoldEq(key, "RUN"):
			return d.String(&l.Run)
		case jsonscan.FoldEq(key, "INVOCATION"):
			return inv()
		case jsonscan.FoldEq(key, "ARTIFACT"):
			return art()
		case jsonscan.FoldEq(key, "USED"):
			return used()
		}
		return d.Skip()
	})
}

// invocationObject decodes one invocation object into el. el is not
// zeroed: reused slice elements and merged pointees keep fields the
// JSON omits, matching encoding/json.
func invocationObject(d *jsonscan.Decoder, el *wireInvocation) error {
	return d.Object(func(key []byte) error {
		switch string(key) {
		case "id":
			return d.String(&el.ID)
		case "task":
			return d.String(&el.Task)
		}
		switch {
		case jsonscan.FoldEq(key, "ID"):
			return d.String(&el.ID)
		case jsonscan.FoldEq(key, "TASK"):
			return d.String(&el.Task)
		}
		return d.Skip()
	})
}

// artifactObject decodes one artifact object into el; as
// invocationObject.
func artifactObject(d *jsonscan.Decoder, el *wireArtifact) error {
	return d.Object(func(key []byte) error {
		switch string(key) {
		case "id":
			return d.String(&el.ID)
		case "generated_by":
			return d.String(&el.GeneratedBy)
		}
		switch {
		case jsonscan.FoldEq(key, "ID"):
			return d.String(&el.ID)
		case jsonscan.FoldEq(key, "GENERATED_BY"):
			return d.String(&el.GeneratedBy)
		}
		return d.Skip()
	})
}

// usedObject decodes one used-edge object into el; as
// invocationObject.
func usedObject(d *jsonscan.Decoder, el *wireUsed) error {
	return d.Object(func(key []byte) error {
		switch string(key) {
		case "process":
			return d.String(&el.Process)
		case "artifact":
			return d.String(&el.Artifact)
		}
		switch {
		case jsonscan.FoldEq(key, "PROCESS"):
			return d.String(&el.Process)
		case jsonscan.FoldEq(key, "ARTIFACT"):
			return d.String(&el.Artifact)
		}
		return d.Skip()
	})
}
